"""Tests for the UTS specification-language lexer and parser."""

import pytest

from repro.uts import (
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    ParamMode,
    RecordType,
    SpecFile,
    UTSSyntaxError,
    parse_spec,
    parse_type,
    render_signature,
)
from repro.uts.lexer import TokenKind, tokenize

# The paper's export specification for the shaft module, verbatim.
SHAFT_SPEC = """
export setshaft prog(
    "ecom"  val array[4] of float,
    "incom" val integer,
    "etur"  val array[4] of float,
    "intur" val integer,
    "ecorr" res float)

export shaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  val float,
    "xspool" val float,
    "xmyi"   val float,
    "dxspl"  res float)
"""


class TestLexer:
    def test_punctuation_and_idents(self):
        toks = tokenize('export foo prog("x" val integer)')
        kinds = [t.kind for t in toks]
        assert kinds == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.STRING,
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.RPAREN,
            TokenKind.EOF,
        ]

    def test_line_comment_skipped(self):
        toks = tokenize("export -- this is a comment\nfoo prog()")
        texts = [t.text for t in toks if t.kind is TokenKind.IDENT]
        assert texts == ["export", "foo", "prog"]

    def test_block_comment_skipped(self):
        toks = tokenize("export { anything\n at all } foo prog()")
        texts = [t.text for t in toks if t.kind is TokenKind.IDENT]
        assert texts == ["export", "foo", "prog"]

    def test_unterminated_string_raises(self):
        with pytest.raises(UTSSyntaxError):
            tokenize('"unterminated')

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(UTSSyntaxError):
            tokenize("{ never closed")

    def test_newline_in_string_raises(self):
        with pytest.raises(UTSSyntaxError):
            tokenize('"split\nstring"')

    def test_error_positions_reported(self):
        with pytest.raises(UTSSyntaxError) as ei:
            tokenize("export foo\n  @")
        assert ei.value.line == 2
        assert ei.value.column == 3

    def test_unexpected_character(self):
        with pytest.raises(UTSSyntaxError):
            tokenize("$")


class TestParseShaftSpec:
    """Parse the paper's own example and verify every detail."""

    def test_two_exports(self):
        decls = parse_spec(SHAFT_SPEC)
        assert len(decls) == 2
        assert all(d.is_export for d in decls)
        assert [d.signature.name for d in decls] == ["setshaft", "shaft"]

    def test_setshaft_signature(self):
        spec = SpecFile.parse(SHAFT_SPEC)
        sig = spec.export_named("setshaft")
        assert len(sig.params) == 5
        assert sig.params[0].name == "ecom"
        assert sig.params[0].mode is ParamMode.VAL
        assert sig.params[0].type == ArrayType(4, FLOAT)
        assert sig.params[4].name == "ecorr"
        assert sig.params[4].mode is ParamMode.RES
        assert sig.params[4].type == FLOAT

    def test_shaft_signature(self):
        spec = SpecFile.parse(SHAFT_SPEC)
        sig = spec.export_named("shaft")
        assert len(sig.params) == 8
        assert [p.name for p in sig.sent_params] == [
            "ecom", "incom", "etur", "intur", "ecorr", "xspool", "xmyi",
        ]
        assert [p.name for p in sig.returned_params] == ["dxspl"]

    def test_import_spec_is_flipped_export(self):
        spec = SpecFile.parse(SHAFT_SPEC)
        imports = spec.as_imports()
        assert set(imports.imports) == {"setshaft", "shaft"}
        assert imports.exports == {}
        # "nearly identical": same signatures
        assert imports.import_named("shaft") == spec.export_named("shaft")


class TestParseTypes:
    def test_simple_types(self):
        assert parse_type("integer") == INTEGER
        assert parse_type("int") == INTEGER
        assert parse_type("float") == FLOAT
        assert parse_type("double") == DOUBLE
        assert parse_type("string") == STRING

    def test_array_type(self):
        assert parse_type("array[4] of float") == ArrayType(4, FLOAT)

    def test_nested_array(self):
        t = parse_type("array[2] of array[3] of double")
        assert t == ArrayType(2, ArrayType(3, DOUBLE))

    def test_record_type(self):
        t = parse_type("record x: integer; y: double end")
        assert t == RecordType.of(x=INTEGER, y=DOUBLE)

    def test_record_trailing_semicolon(self):
        t = parse_type("record x: integer; end")
        assert t == RecordType.of(x=INTEGER)

    def test_record_field_named_end(self):
        """Keywords are identifiers: ``end`` after a ``;`` closes the
        record only when no ``:`` follows (found by the render/parse
        round-trip property)."""
        t = RecordType.of(a=INTEGER, end=INTEGER)
        assert parse_type("record a: integer; end: integer end") == t
        assert parse_type("record a: integer; end: integer; end") == t
        assert parse_type("record end: integer end") == RecordType.of(end=INTEGER)

    def test_record_of_arrays(self):
        t = parse_type("record pts: array[3] of float; n: integer end")
        assert t == RecordType.of(pts=ArrayType(3, FLOAT), n=INTEGER)

    def test_unknown_type_raises(self):
        with pytest.raises(UTSSyntaxError):
            parse_type("quaternion")

    def test_trailing_garbage_raises(self):
        with pytest.raises(UTSSyntaxError):
            parse_type("integer integer")


class TestParseErrors:
    def test_missing_paren(self):
        with pytest.raises(UTSSyntaxError):
            parse_spec('export foo prog "x" val integer)')

    def test_bad_direction(self):
        with pytest.raises(UTSSyntaxError):
            parse_spec('exprot foo prog("x" val integer)')

    def test_unquoted_param_name(self):
        with pytest.raises(UTSSyntaxError):
            parse_spec("export foo prog(x val integer)")

    def test_bad_mode(self):
        with pytest.raises(UTSSyntaxError):
            parse_spec('export foo prog("x" ref integer)')

    def test_missing_array_length(self):
        with pytest.raises(UTSSyntaxError):
            parse_spec('export foo prog("x" val array[] of integer)')

    def test_empty_input_ok(self):
        assert parse_spec("") == []

    def test_empty_params_ok(self):
        decls = parse_spec("export noop prog()")
        assert decls[0].signature.params == ()


class TestRenderRoundTrip:
    def test_render_reparses_identically(self):
        spec = SpecFile.parse(SHAFT_SPEC)
        rendered = spec.render()
        reparsed = SpecFile.parse(rendered)
        assert reparsed.exports == spec.exports

    def test_render_signature_contains_modes(self):
        spec = SpecFile.parse(SHAFT_SPEC)
        text = render_signature(spec.export_named("shaft"))
        assert '"dxspl" res float' in text
        assert '"ecom" val array[4] of float' in text
