"""Tests for the bit-accurate native format codecs.

These exercise the exact heterogeneity problems section 4.1 of the paper
reports: Cray magnitudes exceeding IEEE range, precision differences, and
the out-of-range policy choice (error vs. infinity).
"""

import math
import struct

import pytest

from repro.uts import (
    DOUBLE,
    INTEGER,
    ArrayType,
    CrayFormat,
    IEEEFormat,
    OutOfRangePolicy,
    RecordType,
    UTSConversionError,
    UTSRangeError,
    VAXFormat,
    native_roundtrip_for,
)

from .oracle import roundtrip_native_interpreted

ERR = OutOfRangePolicy.ERROR
INF = OutOfRangePolicy.INFINITY

SPARC = IEEEFormat(name="sparc", int_bits=32, big_endian=True)
X86ISH = IEEEFormat(name="le64", int_bits=64, big_endian=False)
CRAY = CrayFormat(name="cray", int_bits=64)
CONVEX = VAXFormat(name="convex", int_bits=32)


class TestIEEEFormat:
    def test_double_roundtrip_exact(self):
        for v in (0.0, 1.0, -1.5, math.pi, 1e300, 5e-324):
            assert SPARC.unpack_float64(SPARC.pack_float64(v, ERR), ERR) == v

    def test_big_endian_layout(self):
        assert SPARC.pack_float64(1.0, ERR) == struct.pack(">d", 1.0)

    def test_little_endian_layout(self):
        assert X86ISH.pack_float64(1.0, ERR) == struct.pack("<d", 1.0)
        assert SPARC.pack_float64(1.0, ERR) != X86ISH.pack_float64(1.0, ERR)

    def test_int32_range_enforced(self):
        assert SPARC.unpack_integer(SPARC.pack_integer(2**31 - 1)) == 2**31 - 1
        with pytest.raises(UTSRangeError):
            SPARC.pack_integer(2**31)
        with pytest.raises(UTSRangeError):
            SPARC.pack_integer(-(2**31) - 1)

    def test_int64_machines_take_wide_values(self):
        assert X86ISH.unpack_integer(X86ISH.pack_integer(2**40)) == 2**40

    def test_float32_overflow_policies(self):
        with pytest.raises(UTSRangeError):
            SPARC.pack_float32(1e39, ERR)
        data = SPARC.pack_float32(1e39, INF)
        assert SPARC.unpack_float32(data, INF) == math.inf

    def test_float32_range_starts_at_the_rounding_midpoint(self):
        """2**128 - 2**103 is halfway between the largest binary32 and
        2**128: a nearest-even cast overflows from exactly there, so it
        is out of range itself (the unseeded conformance sweep used to
        die of ``struct``'s ``OverflowError`` when it drew it)."""
        from repro.uts import FLOAT, conform

        edge = 3.4028235677973366e38
        assert edge == 2.0**128 - 2.0**103
        below = math.nextafter(edge, 0.0)
        for sign in (1.0, -1.0):
            assert conform(FLOAT, sign * edge) == sign * math.inf
            assert conform(FLOAT, sign * below) == sign * 3.4028234663852886e38
            with pytest.raises(UTSRangeError, match="binary32"):
                SPARC.pack_float32(sign * edge, ERR)
            assert SPARC.unpack_float32(SPARC.pack_float32(sign * edge, INF), INF) == sign * math.inf
            assert SPARC.unpack_float32(SPARC.pack_float32(sign * below, ERR), ERR) == (
                sign * 3.4028234663852886e38
            )
            for policy in (ERR, INF):
                plan = native_roundtrip_for(SPARC, FLOAT, policy)
                try:
                    expected = roundtrip_native_interpreted(SPARC, FLOAT, sign * edge, policy)
                except UTSRangeError:
                    with pytest.raises(UTSRangeError, match="binary32"):
                        plan(sign * edge)
                else:
                    assert plan(sign * edge) == expected == sign * math.inf


class TestCrayFormat:
    def test_zero(self):
        assert CRAY.pack_float64(0.0, ERR) == b"\x00" * 8
        assert CRAY.unpack_float64(b"\x00" * 8, ERR) == 0.0

    def test_exact_values_roundtrip(self):
        # values with <= 48 significant bits survive exactly
        for v in (1.0, -2.0, 0.5, 3.0, 1024.0, -0.75, 2.0**-100, 2.0**100):
            assert CRAY.unpack_float64(CRAY.pack_float64(v, ERR), ERR) == v

    def test_48_bit_precision(self):
        # pi has 53 significant bits; Cray keeps 48, so roundtrip is close
        # but not exact
        rt = CRAY.unpack_float64(CRAY.pack_float64(math.pi, ERR), ERR)
        assert rt != math.pi
        assert rt == pytest.approx(math.pi, rel=2.0**-47)

    def test_no_hidden_bit_normalization(self):
        # 1.0 = 0.5 * 2^1: mantissa top bit set, biased exponent 16385
        word = int.from_bytes(CRAY.pack_float64(1.0, ERR), "big")
        biased = (word >> 48) & 0x7FFF
        mant = word & ((1 << 48) - 1)
        assert biased == 16385
        assert mant == 1 << 47

    def test_sign_bit(self):
        pos = int.from_bytes(CRAY.pack_float64(1.0, ERR), "big")
        neg = int.from_bytes(CRAY.pack_float64(-1.0, ERR), "big")
        assert neg == pos | (1 << 63)

    def test_underflow_flushes_to_zero(self):
        tiny = CrayFormat.raw(0, -16384, 1 << 47)
        assert CRAY.unpack_float64(tiny, ERR) == pytest.approx(0.0, abs=1e-300)

    def test_ieee_denormals_fit_in_cray(self):
        v = 5e-324  # smallest IEEE denormal, well inside Cray range
        rt = CRAY.unpack_float64(CRAY.pack_float64(v, ERR), ERR)
        assert rt == v

    def test_out_of_range_error_policy(self):
        # a Cray value near 2^8000: constructible on a Cray, not in IEEE
        huge = CrayFormat.raw(0, 8000, 1 << 47)
        with pytest.raises(UTSRangeError):
            CRAY.unpack_float64(huge, ERR)

    def test_out_of_range_infinity_policy(self):
        huge = CrayFormat.raw(0, 8000, 1 << 47)
        assert CRAY.unpack_float64(huge, INF) == math.inf
        neg = CrayFormat.raw(1, 8000, 1 << 47)
        assert CRAY.unpack_float64(neg, INF) == -math.inf

    def test_no_nan_or_inf_representation(self):
        with pytest.raises(UTSConversionError):
            CRAY.pack_float64(float("nan"), ERR)
        with pytest.raises(UTSRangeError):
            CRAY.pack_float64(math.inf, ERR)

    def test_single_and_double_identical_on_cray(self):
        # Cray Fortran REAL was 64-bit: both UTS floats use the same word
        assert CRAY.pack_float32(math.pi, ERR) == CRAY.pack_float64(math.pi, ERR)

    def test_64_bit_integers(self):
        v = 2**50 + 12345
        assert CRAY.unpack_integer(CRAY.pack_integer(v)) == v

    def test_rounding_at_ieee_max(self):
        """A double a few ulps below IEEE max rounds UP into the Cray's
        48-bit mantissa, yielding a Cray value of exactly 2^1024 — which
        is representable on the Cray but not in IEEE binary64.  The
        round trip therefore hits the out-of-range machinery."""
        import sys

        v = sys.float_info.max  # 1.7976931348623157e308, 53 one-bits
        data = CRAY.pack_float64(v, ERR)
        with pytest.raises(UTSRangeError):
            CRAY.unpack_float64(data, ERR)
        assert CRAY.unpack_float64(data, INF) == math.inf

    def test_raw_validation(self):
        with pytest.raises(ValueError):
            CrayFormat.raw(0, 20000, 0)
        with pytest.raises(ValueError):
            CrayFormat.raw(0, 0, 1 << 48)


class TestVAXFormat:
    def test_zero(self):
        assert CONVEX.unpack_float64(CONVEX.pack_float64(0.0, ERR), ERR) == 0.0

    def test_exact_roundtrip(self):
        for v in (1.0, -1.0, 0.5, 2.5, 1e30, -1e-30):
            rt = CONVEX.unpack_float64(CONVEX.pack_float64(v, ERR), ERR)
            assert rt == pytest.approx(v, rel=2.0**-55)

    def test_d_floating_has_more_precision_than_ieee(self):
        # 56-bit mantissa: doubles roundtrip exactly through D_floating
        for v in (math.pi, math.e, 1.0 / 3.0):
            assert CONVEX.unpack_float64(CONVEX.pack_float64(v, ERR), ERR) == v

    def test_d_floating_range_is_small(self):
        # ~1.7e38 max: an ordinary IEEE double is out of range for Convex
        with pytest.raises(UTSRangeError):
            CONVEX.pack_float64(1e40, ERR)

    def test_clamp_policy(self):
        data = CONVEX.pack_float64(1e40, INF)
        v = CONVEX.unpack_float64(data, INF)
        assert v == pytest.approx(1.7e38, rel=0.01)

    def test_underflow_flushes(self):
        assert CONVEX.unpack_float64(CONVEX.pack_float64(1e-40, ERR), ERR) == 0.0

    def test_pdp_byte_order_differs_from_ieee(self):
        # The middle-endian layout must differ from both IEEE byte orders.
        v = 123.456
        vax = CONVEX.pack_float64(v, ERR)
        assert vax != struct.pack(">d", v)
        assert vax != struct.pack("<d", v)

    def test_f_floating_single(self):
        rt = CONVEX.unpack_float32(CONVEX.pack_float32(1.5, ERR), ERR)
        assert rt == 1.5
        with pytest.raises(UTSRangeError):
            CONVEX.pack_float32(1e39, ERR)

    def test_no_nan(self):
        with pytest.raises(UTSConversionError):
            CONVEX.pack_float64(float("nan"), ERR)

    def test_integers_little_endian(self):
        assert CONVEX.pack_integer(1) == b"\x01\x00\x00\x00"


class TestRoundtripNative:
    def test_structured_roundtrip_on_cray(self):
        t = RecordType.of(xs=ArrayType(3, DOUBLE), n=INTEGER)
        v = {"xs": [1.0, 0.5, -2.0], "n": 42}
        assert native_roundtrip_for(CRAY, t, ERR)(v) == v

    def test_precision_loss_applies_elementwise(self):
        t = ArrayType(2, DOUBLE)
        out = native_roundtrip_for(CRAY, t, ERR)([1.0, math.pi])
        assert out[0] == 1.0
        assert out[1] != math.pi

    def test_int_width_enforced_for_structures(self):
        t = ArrayType(1, INTEGER)
        with pytest.raises(UTSRangeError):
            native_roundtrip_for(SPARC, t, ERR)([2**40])

    def test_strings_format_independent(self):
        from repro.uts import STRING

        assert native_roundtrip_for(CRAY, STRING, ERR)("hello") == "hello"


class TestCrossFormatConversion:
    """Simulate the full sender-native -> UTS wire -> receiver-native path."""

    def transfer(self, value, src, dst, policy=ERR):
        # sender holds the value natively, converts to the IEEE wire form,
        # receiver stores it natively
        wire_val = native_roundtrip_for(src, DOUBLE, policy)(value)
        return native_roundtrip_for(dst, DOUBLE, policy)(wire_val)

    def test_sparc_to_cray_loses_low_bits(self):
        got = self.transfer(math.pi, SPARC, CRAY)
        assert got == pytest.approx(math.pi, rel=2.0**-47)

    def test_cray_to_convex_ordinary_value(self):
        assert self.transfer(1234.5, CRAY, CONVEX) == 1234.5

    def test_large_ieee_value_rejected_by_convex(self):
        with pytest.raises(UTSRangeError):
            self.transfer(1e300, SPARC, CONVEX)

    def test_large_ieee_value_clamped_under_infinity_policy(self):
        got = self.transfer(1e300, SPARC, CONVEX, policy=INF)
        assert got == pytest.approx(1.7e38, rel=0.01)


class TestSignedZero:
    """Regression: the packers' early ``value == 0.0`` return matched
    ``-0.0`` and silently dropped the sign the wire format preserves."""

    def test_cray_packs_negative_zero_as_sign_bit(self):
        data = CRAY.pack_float64(-0.0, ERR)
        assert int.from_bytes(data, "big") == 1 << 63

    def test_cray_roundtrips_negative_zero(self):
        for policy in (ERR, INF):
            rt = CRAY.unpack_float64(CRAY.pack_float64(-0.0, policy), policy)
            assert rt == 0.0 and math.copysign(1.0, rt) == -1.0

    def test_ieee_roundtrips_negative_zero(self):
        for fmt in (SPARC, X86ISH):
            rt = fmt.unpack_float64(fmt.pack_float64(-0.0, ERR), ERR)
            assert rt == 0.0 and math.copysign(1.0, rt) == -1.0

    def test_vax_negative_zero_is_reserved_under_error(self):
        # a sign bit with zero exponent is the VAX reserved operand: the
        # format cannot represent -0.0, so the strict policy must refuse
        # rather than silently drop the sign
        with pytest.raises(UTSConversionError):
            CONVEX.pack_float64(-0.0, ERR)
        with pytest.raises(UTSConversionError):
            CONVEX.pack_float32(-0.0, ERR)

    def test_vax_negative_zero_becomes_positive_under_infinity(self):
        rt = CONVEX.unpack_float64(CONVEX.pack_float64(-0.0, INF), INF)
        assert rt == 0.0 and math.copysign(1.0, rt) == 1.0

    def test_positive_zero_unaffected(self):
        for fmt in (SPARC, X86ISH, CRAY, CONVEX):
            rt = fmt.unpack_float64(fmt.pack_float64(0.0, ERR), ERR)
            assert rt == 0.0 and math.copysign(1.0, rt) == 1.0


class TestVAXReservedOperand:
    """Regression: unpacking a sign bit with zero exponent returned -0.0
    instead of faulting the way VAX/Convex hardware did."""

    def test_reserved_operand_raises_under_error(self):
        with pytest.raises(UTSConversionError):
            CONVEX.unpack_float64(VAXFormat.raw(1, 0, 0), ERR)

    def test_reserved_operand_with_fraction_raises_too(self):
        with pytest.raises(UTSConversionError):
            CONVEX.unpack_float64(VAXFormat.raw(1, 0, 12345), ERR)

    def test_reserved_operand_reads_zero_under_infinity(self):
        assert CONVEX.unpack_float64(VAXFormat.raw(1, 0, 0), INF) == 0.0

    def test_dirty_zero_reads_zero_under_both_policies(self):
        # zero exponent, sign clear, nonzero fraction: a "dirty zero"
        for policy in (ERR, INF):
            assert CONVEX.unpack_float64(VAXFormat.raw(0, 0, 999), policy) == 0.0

    def test_f_floating_reserved_operand(self):
        data = VAXFormat.raw(1, 0, 0, frac_bits=23)
        with pytest.raises(UTSConversionError):
            CONVEX.unpack_float32(data, ERR)
        assert CONVEX.unpack_float32(data, INF) == 0.0

    def test_raw_roundtrips_packed_bytes(self):
        assert VAXFormat.raw(0, 129, 0) == CONVEX.pack_float64(1.0, ERR)

    def test_raw_validation(self):
        with pytest.raises(ValueError):
            VAXFormat.raw(0, 256, 0)
        with pytest.raises(ValueError):
            VAXFormat.raw(0, 0, 1 << 55)
        with pytest.raises(ValueError):
            VAXFormat.raw(0, 0, 1 << 23, frac_bits=23)


class TestCrayUnderflowSign:
    def test_underflow_flush_keeps_sign(self):
        # a negative Cray value too small for IEEE flushes to -0.0, not 0.0
        tiny = CrayFormat.raw(1, -16384, 1 << 47)
        rt = CRAY.unpack_float64(tiny, ERR)
        assert rt == 0.0 and math.copysign(1.0, rt) == -1.0

    def test_signed_zero_words_unpack_with_sign(self):
        neg = CrayFormat.raw(1, 0, 0)
        rt = CRAY.unpack_float64(neg, ERR)
        assert rt == 0.0 and math.copysign(1.0, rt) == -1.0


class TestInfinityConversion:
    def test_cray_infinity_raises_under_error(self):
        for v in (math.inf, -math.inf):
            with pytest.raises(UTSRangeError):
                CRAY.pack_float64(v, ERR)

    def test_cray_infinity_roundtrips_under_infinity_policy(self):
        # the max Cray word has an exponent beyond IEEE, so unpacking it
        # under the same policy restores +/-inf
        for v in (math.inf, -math.inf):
            assert CRAY.unpack_float64(CRAY.pack_float64(v, INF), INF) == v

    def test_vax_infinity_raises_under_error(self):
        for v in (math.inf, -math.inf):
            with pytest.raises(UTSRangeError):
                CONVEX.pack_float64(v, ERR)

    def test_vax_infinity_clamps_to_largest_finite(self):
        vmax = math.ldexp(1.0 - 2.0**-56, 127)
        assert CONVEX.unpack_float64(CONVEX.pack_float64(math.inf, INF), INF) == vmax
        assert CONVEX.unpack_float64(CONVEX.pack_float64(-math.inf, INF), INF) == -vmax


class TestNestedPolicy:
    """The INFINITY policy must reach every element of a structured value
    through the native round trip, not just top-level scalars."""

    def test_infinity_policy_on_nested_record(self):
        t = RecordType.of(xs=ArrayType(2, DOUBLE), y=DOUBLE)
        v = {"xs": [1e300, -1e300], "y": 1.0}
        with pytest.raises(UTSRangeError):
            native_roundtrip_for(CONVEX, t, ERR)(v)
        out = native_roundtrip_for(CONVEX, t, INF)(v)
        vmax = math.ldexp(1.0 - 2.0**-56, 127)
        assert out["xs"] == [vmax, -vmax]
        assert out["y"] == 1.0

    def test_infinity_policy_on_array_of_records(self):
        t = ArrayType(2, RecordType.of(x=DOUBLE))
        out = native_roundtrip_for(CRAY, t, INF)([{"x": math.inf}, {"x": 2.0}])
        assert out == [{"x": math.inf}, {"x": 2.0}]

    def test_negative_zero_in_array_raises_on_convex(self):
        t = ArrayType(3, DOUBLE)
        with pytest.raises(UTSConversionError):
            native_roundtrip_for(CONVEX, t, ERR)([1.0, -0.0, 2.0])
        assert native_roundtrip_for(CRAY, t, ERR)([1.0, -0.0, 2.0])[1] == 0.0
