"""Property-based tests for UTS using hypothesis.

Core invariants:
* wire encode/decode is a lossless round trip for conformed values,
* encoded_size always equals the actual encoding length,
* parse(render(spec)) == spec for arbitrary signatures,
* native pack/unpack round trips within each format's precision,
* conform is idempotent.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    CrayFormat,
    IEEEFormat,
    OutOfRangePolicy,
    ParamMode,
    Parameter,
    RecordField,
    RecordType,
    Signature,
    SpecFile,
    UTSConversionError,
    UTSError,
    VAXFormat,
    codec_for,
    conform,
    native_roundtrip_for,
    render_signature,
)
from repro.uts.parser import parse_spec

from .oracle import (
    decode_value,
    encode_value,
    encoded_size,
    identical,
    roundtrip_native_interpreted,
)

ERR = OutOfRangePolicy.ERROR

# -- strategies --------------------------------------------------------------

simple_types = st.sampled_from([INTEGER, FLOAT, DOUBLE, BYTE, STRING, BOOLEAN])

ident = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


def _record_from_fields(fields):
    names, types = zip(*fields)
    return RecordType(tuple(RecordField(n, t) for n, t in zip(names, types)))


uts_types = st.recursive(
    simple_types,
    lambda children: st.one_of(
        st.builds(ArrayType, st.integers(min_value=0, max_value=5), children),
        st.lists(
            st.tuples(ident, children), min_size=1, max_size=4, unique_by=lambda f: f[0]
        ).map(_record_from_fields),
    ),
    max_leaves=8,
)

finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


def value_for(t):
    """A strategy producing conformable values of UTS type ``t``."""
    if t == INTEGER:
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if t == FLOAT:
        return f32
    if t == DOUBLE:
        return finite_doubles
    if t == BYTE:
        return st.integers(min_value=0, max_value=255)
    if t == STRING:
        return st.text(max_size=20)
    if t == BOOLEAN:
        return st.booleans()
    if isinstance(t, ArrayType):
        return st.lists(value_for(t.element), min_size=t.length, max_size=t.length)
    if isinstance(t, RecordType):
        return st.fixed_dictionaries({f.name: value_for(f.type) for f in t.fields})
    raise AssertionError(t)


typed_values = uts_types.flatmap(lambda t: st.tuples(st.just(t), value_for(t)))


# -- wire format properties ---------------------------------------------------


@given(typed_values)
def test_wire_roundtrip_is_lossless(tv):
    t, v = tv
    v = conform(t, v)
    data = encode_value(t, v)
    decoded, offset = decode_value(t, data)
    assert offset == len(data)
    assert decoded == v


@given(typed_values)
def test_encoded_size_matches_encoding(tv):
    t, v = tv
    v = conform(t, v)
    assert encoded_size(t, v) == len(encode_value(t, v))


@given(typed_values)
def test_conform_is_idempotent(tv):
    t, v = tv
    once = conform(t, v)
    assert conform(t, once) == once


# -- spec language properties --------------------------------------------------

signatures = st.builds(
    Signature,
    name=ident,
    params=st.lists(
        st.builds(
            Parameter,
            name=st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            mode=st.sampled_from(list(ParamMode)),
            type=uts_types,
        ),
        max_size=5,
        unique_by=lambda p: p.name,
    ).map(tuple),
)


@given(signatures)
def test_spec_render_parse_roundtrip(sig):
    source = "export " + render_signature(sig)
    decls = parse_spec(source)
    assert len(decls) == 1
    assert decls[0].is_export
    assert decls[0].signature == sig


@given(signatures)
def test_import_of_own_export_is_compatible(sig):
    sig.check_import_subset(sig)


@given(st.lists(signatures, max_size=3, unique_by=lambda s: s.name))
def test_specfile_roundtrip(sigs):
    source = "\n".join("export " + render_signature(s) for s in sigs)
    spec = SpecFile.parse(source)
    assert spec.exports == {s.name: s for s in sigs}
    # as_imports flips everything
    flipped = spec.as_imports()
    assert flipped.imports == spec.exports


# -- native format properties ----------------------------------------------------

SPARC = IEEEFormat(name="sparc", int_bits=32, big_endian=True)
CRAY = CrayFormat(name="cray", int_bits=64)
CONVEX = VAXFormat(name="convex", int_bits=32)


@given(finite_doubles)
def test_ieee_native_roundtrip_exact(v):
    assert SPARC.unpack_float64(SPARC.pack_float64(v, ERR), ERR) == v


# Doubles within a few ulps of the IEEE maximum can round *up* when
# truncated to the Cray's 48-bit mantissa, producing a Cray value that no
# longer fits in IEEE binary64 (see test_native.py::test_rounding_at_ieee_max
# for the explicit case), so the round-trip properties are stated over
# |v| <= 1.79e308, just inside the cliff.
cray_safe_doubles = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1.79e308, max_value=1.79e308
)


@given(cray_safe_doubles)
@settings(max_examples=300)
def test_cray_roundtrip_within_48_bit_precision(v):
    rt = CRAY.unpack_float64(CRAY.pack_float64(v, ERR), ERR)
    # the sign always survives, including the sign of zero (the Cray
    # word keeps its sign bit over a zero mantissa)
    assert math.copysign(1.0, rt) == math.copysign(1.0, v)
    if v == 0.0:
        assert rt == 0.0
    else:
        assert rt != 0.0
        assert abs(rt - v) <= abs(v) * 2.0**-47


@given(cray_safe_doubles)
@settings(max_examples=300)
def test_cray_roundtrip_is_stable(v):
    """Packing twice equals packing once (rounding is deterministic and
    the first roundtrip is exactly representable)."""
    once = CRAY.unpack_float64(CRAY.pack_float64(v, ERR), ERR)
    twice = CRAY.unpack_float64(CRAY.pack_float64(once, ERR), ERR)
    assert once == twice


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e37, max_value=1e37))
def test_vax_roundtrip_within_range(v):
    if v == 0.0 and math.copysign(1.0, v) < 0:
        # -0.0 would be the reserved operand bit pattern: strict policy refuses
        with pytest.raises(UTSConversionError):
            CONVEX.pack_float64(v, ERR)
        return
    rt = CONVEX.unpack_float64(CONVEX.pack_float64(v, ERR), ERR)
    if v == 0.0 or abs(v) < 2.0**-128:
        # at/below the D_floating exponent floor values flush to +0.0
        assert rt == 0.0 and math.copysign(1.0, rt) == 1.0
    else:
        # 56-bit mantissa beats IEEE's 53: in-range doubles are exact
        assert rt == v


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_int32_native_roundtrip(v):
    assert SPARC.unpack_integer(SPARC.pack_integer(v)) == v


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_int64_native_roundtrip(v):
    assert CRAY.unpack_integer(CRAY.pack_integer(v)) == v


@given(typed_values)
@settings(max_examples=200)
def test_roundtrip_native_idempotent_on_ieee64(tv):
    """An IEEE-64 machine with 64-bit ints holds any conformed value
    exactly, so a second roundtrip changes nothing."""
    t, v = tv
    fmt = IEEEFormat(name="le64", int_bits=64, big_endian=False)
    v = conform(t, v)
    once = native_roundtrip_for(fmt, t, ERR)(v)
    assert native_roundtrip_for(fmt, t, ERR)(once) == once


# -- compiled fast path vs interpretive reference -----------------------------


@given(typed_values)
@settings(max_examples=200)
def test_compiled_encoder_matches_interpretive_bytes(tv):
    t, v = tv
    v = conform(t, v)
    codec = codec_for(t)
    data = encode_value(t, v)
    assert codec.encode(v) == data
    decoded, offset = codec.decode(data)
    assert offset == len(data)
    assert identical(t, decoded, v)


@given(typed_values)
@settings(max_examples=200)
def test_compiled_native_plan_matches_interpreter(tv):
    t, v = tv
    v = conform(t, v)
    for fmt in (SPARC, CRAY, CONVEX):
        plan = native_roundtrip_for(fmt, t, ERR)
        try:
            expected = roundtrip_native_interpreted(fmt, t, v, ERR)
        except UTSError as exc:
            with pytest.raises(type(exc)):
                plan(v)
        else:
            assert identical(t, plan(v), expected)


@given(st.floats(allow_nan=False, allow_infinity=True))
@settings(max_examples=300)
def test_roundtrip_native_delegates_to_compiled(v):
    """The runtime's native plan and the interpretive reference agree
    on every double, for every format, under both policies."""
    for fmt in (SPARC, CRAY, CONVEX):
        for policy in (ERR, OutOfRangePolicy.INFINITY):
            try:
                expected = roundtrip_native_interpreted(fmt, DOUBLE, v, policy)
            except UTSError as exc:
                with pytest.raises(type(exc)):
                    native_roundtrip_for(fmt, DOUBLE, policy)(v)
            else:
                assert identical(DOUBLE, native_roundtrip_for(fmt, DOUBLE, policy)(v),
                                 expected)


@given(typed_values)
@settings(max_examples=150)
def test_wire_roundtrip_preserves_float_bits(tv):
    """Strengthened losslessness: bit-level identity, so signed zeros in
    nested structures survive the wire (== alone cannot see them)."""
    t, v = tv
    v = conform(t, v)
    decoded, _ = decode_value(t, encode_value(t, v))
    assert identical(t, decoded, v)
