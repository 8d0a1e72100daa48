"""Unit tests for the UTS type model."""

import pytest

from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    ParamMode,
    Parameter,
    RecordField,
    RecordType,
    Signature,
    UTSCompatibilityError,
    UTSTypeError,
)


class TestStructuralEquality:
    def test_simple_singletons_equal(self):
        assert INTEGER == INTEGER
        assert FLOAT != DOUBLE
        assert BYTE != INTEGER

    def test_array_structural_equality(self):
        assert ArrayType(4, FLOAT) == ArrayType(4, FLOAT)
        assert ArrayType(4, FLOAT) != ArrayType(5, FLOAT)
        assert ArrayType(4, FLOAT) != ArrayType(4, DOUBLE)

    def test_nested_array_equality(self):
        a = ArrayType(2, ArrayType(3, INTEGER))
        b = ArrayType(2, ArrayType(3, INTEGER))
        assert a == b

    def test_record_structural_equality(self):
        a = RecordType.of(x=INTEGER, y=DOUBLE)
        b = RecordType.of(x=INTEGER, y=DOUBLE)
        assert a == b
        # field order matters
        c = RecordType.of(y=DOUBLE, x=INTEGER)
        assert a != c

    def test_types_hashable(self):
        seen = {INTEGER, FLOAT, ArrayType(4, FLOAT), RecordType.of(a=BYTE)}
        assert ArrayType(4, FLOAT) in seen


class TestDescribe:
    def test_simple_describe(self):
        assert INTEGER.describe() == "integer"
        assert FLOAT.describe() == "float"
        assert DOUBLE.describe() == "double"
        assert STRING.describe() == "string"
        assert BOOLEAN.describe() == "boolean"
        assert BYTE.describe() == "byte"

    def test_array_describe(self):
        assert ArrayType(4, FLOAT).describe() == "array[4] of float"

    def test_record_describe(self):
        t = RecordType.of(x=INTEGER, y=DOUBLE)
        assert t.describe() == "record x: integer; y: double end"


class TestValidation:
    def test_negative_array_length_rejected(self):
        with pytest.raises(UTSTypeError):
            ArrayType(-1, INTEGER)

    def test_zero_length_array_allowed(self):
        assert ArrayType(0, INTEGER).length == 0

    def test_duplicate_record_fields_rejected(self):
        with pytest.raises(UTSTypeError):
            RecordType((RecordField("x", INTEGER), RecordField("x", DOUBLE)))

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(UTSTypeError):
            Signature(
                "p",
                (
                    Parameter("a", ParamMode.VAL, INTEGER),
                    Parameter("a", ParamMode.RES, INTEGER),
                ),
            )


class TestParamModes:
    def test_val_sends_only(self):
        assert ParamMode.VAL.sends and not ParamMode.VAL.returns

    def test_res_returns_only(self):
        assert ParamMode.RES.returns and not ParamMode.RES.sends

    def test_var_both_directions(self):
        assert ParamMode.VAR.sends and ParamMode.VAR.returns


def shaft_signature():
    """The paper's shaft export specification, verbatim."""
    return Signature(
        "shaft",
        (
            Parameter("ecom", ParamMode.VAL, ArrayType(4, FLOAT)),
            Parameter("incom", ParamMode.VAL, INTEGER),
            Parameter("etur", ParamMode.VAL, ArrayType(4, FLOAT)),
            Parameter("intur", ParamMode.VAL, INTEGER),
            Parameter("ecorr", ParamMode.VAL, FLOAT),
            Parameter("xspool", ParamMode.VAL, FLOAT),
            Parameter("xmyi", ParamMode.VAL, FLOAT),
            Parameter("dxspl", ParamMode.RES, FLOAT),
        ),
    )


class TestSignature:
    def test_sent_and_returned_partition(self):
        sig = shaft_signature()
        assert [p.name for p in sig.sent_params] == [
            "ecom", "incom", "etur", "intur", "ecorr", "xspool", "xmyi",
        ]
        assert [p.name for p in sig.returned_params] == ["dxspl"]

    def test_var_appears_in_both_directions(self):
        sig = Signature("p", (Parameter("x", ParamMode.VAR, DOUBLE),))
        assert sig.sent_params == sig.params
        assert sig.returned_params == sig.params

    def test_param_named(self):
        sig = shaft_signature()
        assert sig.param_named("xspool").type == FLOAT
        with pytest.raises(UTSTypeError):
            sig.param_named("nope")

    def test_empty_signature(self):
        sig = Signature("noop")
        assert sig.sent_params == ()
        assert sig.returned_params == ()


class TestImportSubset:
    def test_identical_import_accepted(self):
        sig = shaft_signature()
        sig.check_import_subset(sig)

    def test_subset_import_accepted(self):
        export = shaft_signature()
        # import only a (relative-order-preserving) subset of parameters
        imp = Signature(
            "shaft",
            (
                Parameter("incom", ParamMode.VAL, INTEGER),
                Parameter("xspool", ParamMode.VAL, FLOAT),
                Parameter("dxspl", ParamMode.RES, FLOAT),
            ),
        )
        imp.check_import_subset(export)

    def test_name_mismatch_rejected(self):
        imp = Signature("other")
        with pytest.raises(UTSCompatibilityError):
            imp.check_import_subset(shaft_signature())

    def test_out_of_order_subset_rejected(self):
        export = shaft_signature()
        imp = Signature(
            "shaft",
            (
                Parameter("xspool", ParamMode.VAL, FLOAT),
                Parameter("incom", ParamMode.VAL, INTEGER),  # out of order
            ),
        )
        with pytest.raises(UTSCompatibilityError):
            imp.check_import_subset(export)

    def test_mode_mismatch_rejected(self):
        export = shaft_signature()
        imp = Signature("shaft", (Parameter("incom", ParamMode.VAR, INTEGER),))
        with pytest.raises(UTSCompatibilityError):
            imp.check_import_subset(export)

    def test_type_mismatch_rejected(self):
        export = shaft_signature()
        imp = Signature("shaft", (Parameter("incom", ParamMode.VAL, DOUBLE),))
        with pytest.raises(UTSCompatibilityError):
            imp.check_import_subset(export)

    def test_unknown_parameter_rejected(self):
        export = shaft_signature()
        imp = Signature("shaft", (Parameter("bogus", ParamMode.VAL, INTEGER),))
        with pytest.raises(UTSCompatibilityError):
            imp.check_import_subset(export)
