"""Ablation A1 (§4.1) — UTS conversion costs and the Cray range policy.

Measures the real (wall-clock) cost of the UTS conversion library this
reproduction implements, on the codec the runtime runs
(``signature_codec``, ``codec_for`` and ``native_roundtrip_for``): wire
encode/decode of the shaft call's arguments, native-format round trips
for each architecture, and the float-vs-double choice the paper added in
its §4.1 evolution.  Three contrasts time it against the interpretive
oracle in ``tests/uts/oracle.py``, so run from the repository root with
``python -m pytest benchmarks/ --benchmark-only``.
"""

import math

import pytest

from repro.machines import CONVEX_C2, CRAY_YMP_ARCH, SPARC
from repro.uts import (
    DOUBLE,
    FLOAT,
    ArrayType,
    CrayFormat,
    OutOfRangePolicy,
    SpecFile,
    UTSRangeError,
    codec_for,
    conform_args,
    native_roundtrip_for,
    signature_codec,
)
from tests.uts import oracle

SHAFT_IMPORT = SpecFile.parse(
    """
import shaft prog(
    "ecom"   val array[4] of double,
    "incom"  val integer,
    "etur"   val array[4] of double,
    "intur"  val integer,
    "ecorr"  val double,
    "xspool" val double,
    "xmyi"   val double,
    "dxspl"  res double)
"""
).import_named("shaft")

SHAFT_ARGS = dict(
    ecom=[12.9e6, 0.0, 0.0, 0.0], incom=1, etur=[13.4e6, 0.0, 0.0, 0.0],
    intur=1, ecorr=0.0, xspool=1.0, xmyi=2.2,
)

ERR = OutOfRangePolicy.ERROR
SHAFT_SEND = signature_codec(SHAFT_IMPORT, "send")


def marshal_shaft(args):
    """A client stub's request: conform, then encode into a fresh buffer."""
    out = bytearray()
    SHAFT_SEND.encode_conformed_into(conform_args(SHAFT_IMPORT, args, "send"), out)
    return out


def test_marshal_shaft_request(benchmark):
    """Marshal the paper's shaft call (conform + wire-encode)."""
    data = benchmark(marshal_shaft, SHAFT_ARGS)
    assert len(data) == 8 * 4 * 2 + 8 * 2 + 8 * 3  # arrays + ints + scalars
    benchmark.extra_info["request_bytes"] = len(data)


def test_unmarshal_shaft_request(benchmark):
    data = bytes(marshal_shaft(SHAFT_ARGS))
    out = benchmark(SHAFT_SEND.unmarshal, data)
    assert out["ecom"][0] == 12.9e6


def test_encode_large_array(benchmark):
    """Bulk data: a 4096-double field (bandwidth-bound transfers)."""
    codec = codec_for(ArrayType(4096, DOUBLE))
    values = [math.sin(i) for i in range(4096)]
    data = benchmark(codec.encode, values)
    assert len(data) == 4096 * 8
    benchmark.extra_info["MB"] = len(data) / 1e6


def test_decode_large_array(benchmark):
    codec = codec_for(ArrayType(4096, DOUBLE))
    data = codec.encode([math.sin(i) for i in range(4096)])
    out, offset = benchmark(codec.decode, data)
    assert offset == len(data)


def test_float_vs_double_wire_size(benchmark):
    """The §4.1 addition of single precision halves the wire size —
    'it allows the user to specify more precisely the size of the
    argument value to be passed'."""
    tf, td = codec_for(ArrayType(1024, FLOAT)), codec_for(ArrayType(1024, DOUBLE))
    vf = [float(i) for i in range(1024)]

    def both():
        return tf.encode(vf), td.encode(vf)

    f_data, d_data = benchmark(both)
    assert len(f_data) * 2 == len(d_data)
    benchmark.extra_info.update(
        {"float_bytes": len(f_data), "double_bytes": len(d_data)}
    )


@pytest.mark.parametrize(
    "arch", [SPARC, CRAY_YMP_ARCH, CONVEX_C2], ids=lambda a: a.name
)
def test_native_roundtrip_cost(benchmark, arch):
    """Per-architecture native codec cost for a 64-double array.

    The Cray and Convex codecs are pure-Python bit manipulation, so they
    cost more than the struct-based IEEE path — mirroring the paper's
    note that writing the Cray conversion routines was the real work."""
    t = ArrayType(64, DOUBLE)
    values = [1.5 * i for i in range(64)]
    out = benchmark(native_roundtrip_for(arch.native_format, t, ERR), values)
    assert out[2] == 3.0
    benchmark.extra_info["format"] = arch.native_format.name


def test_cray_out_of_range_policy(benchmark):
    """The §4.1 decision: out-of-range Cray values are errors (the
    chosen policy) vs infinity (the rejected one)."""
    cray = CRAY_YMP_ARCH.native_format
    huge = CrayFormat.raw(0, 8000, 1 << 47)

    def check_both():
        try:
            cray.unpack_float64(huge, OutOfRangePolicy.ERROR)
            errored = False
        except UTSRangeError:
            errored = True
        inf_val = cray.unpack_float64(huge, OutOfRangePolicy.INFINITY)
        return errored, inf_val

    errored, inf_val = benchmark(check_both)
    assert errored
    assert inf_val == math.inf
    benchmark.extra_info["chosen_policy"] = "error (after consulting NPSS researchers)"


def test_compiled_vs_interpretive_encode(benchmark):
    """The compiled fast path: a 1k-double array must encode byte-identically
    to the interpretive reference and at least 2x faster (the whole array
    collapses to one struct('>1000d') call)."""
    import time

    t = ArrayType(1000, DOUBLE)
    values = [math.sin(i) for i in range(1000)]
    codec = codec_for(t)
    assert codec.plan == "struct('>1000d')"
    assert codec.encode(values) == oracle.encode_value(t, values)

    def best_of(fn, rounds=7, number=50):
        best = math.inf
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(number):
                fn(values)
            best = min(best, time.perf_counter() - start)
        return best

    interp = best_of(lambda v: oracle.encode_value(t, v))
    compiled = benchmark(codec.encode, values)
    compiled_t = best_of(codec.encode)
    speedup = interp / compiled_t
    benchmark.extra_info.update(
        {"interpretive_s": interp, "compiled_s": compiled_t,
         "speedup": round(speedup, 1)}
    )
    assert speedup >= 2.0, f"compiled path only {speedup:.1f}x faster"
    assert compiled == oracle.encode_value(t, values)


def test_encode_into_removes_the_double_copy(benchmark):
    """The zero-copy entry point: ``encode_conformed_into`` writes into
    the caller's buffer and stops there.  Materializing that buffer as
    ``bytes`` is a full second copy of every payload; skipping it gives
    the same bytes (the oracle's), one copy fewer, measurably faster on
    bulk payloads."""
    import time

    sig = SpecFile.parse(
        'import bulk prog("xs" val array[4096] of double)'
    ).import_named("bulk")
    codec = signature_codec(sig, "send")
    args = {"xs": [math.sin(i) for i in range(4096)]}
    conformed = conform_args(sig, args, "send")

    buf = bytearray()

    def into():
        del buf[:]
        return codec.encode_conformed_into(conformed, buf)

    def copied():
        out = bytearray()
        codec.encode_conformed_into(conformed, out)
        return bytes(out)

    n = benchmark(into)
    assert n == 4096 * 8
    assert bytes(buf) == copied() == oracle.marshal_args(sig, args, "send")

    def best_of(fn, rounds=7, number=50):
        best = math.inf
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    with_copy = best_of(copied)
    zero_copy = best_of(into)
    benchmark.extra_info.update(
        {
            "with_copy_s": with_copy,
            "encode_conformed_into_s": zero_copy,
            "double_copy_overhead": round(with_copy / zero_copy - 1.0, 3),
        }
    )
    # the into-path must never be slower: it does strictly less work
    assert zero_copy <= with_copy * 1.10


def test_compiled_native_plan_speedup(benchmark):
    """The per-(format, type, policy) native plans: same values, same
    exceptions, less dispatch."""
    t = ArrayType(256, DOUBLE)
    values = [1.5 * i for i in range(256)]
    fmt = SPARC.native_format
    plan = native_roundtrip_for(fmt, t, ERR)
    out = benchmark(plan, values)
    assert oracle.identical(t, out, oracle.roundtrip_native_interpreted(fmt, t, values, ERR))
