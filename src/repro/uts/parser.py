"""Recursive-descent parser for the UTS specification language.

Grammar (EBNF):

    specfile   = { declaration } ;
    declaration= ( "export" | "import" ) ident kind "(" [ paramlist ] ")" ;
    kind       = "prog" ;
    paramlist  = param { "," param } ;
    param      = STRING mode type ;
    mode       = "val" | "res" | "var" ;
    type       = "integer" | "int" | "float" | "double" | "byte"
               | "string" | "boolean"
               | "array" "[" NUMBER "]" "of" type
               | "record" field { ";" field } "end" ;
    field      = ident ":" type ;

Parameter names are quoted strings, exactly as in the paper's shaft
example.  ``int`` is accepted as a synonym for ``integer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import UTSSyntaxError
from .lexer import Token, TokenKind, tokenize
from .types import (
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
    UTSType,
)

__all__ = ["Declaration", "parse_spec", "parse_type"]

_SIMPLE_TYPES = {
    "integer": INTEGER,
    "int": INTEGER,
    "float": FLOAT,
    "double": DOUBLE,
    "byte": BYTE,
    "string": STRING,
    "boolean": BOOLEAN,
}

_MODES = {m.value: m for m in ParamMode}


@dataclass(frozen=True)
class Declaration:
    """One parsed ``export``/``import`` declaration."""

    direction: str  # "export" or "import"
    signature: Signature

    @property
    def is_export(self) -> bool:
        return self.direction == "export"


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ---------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._cur
        if tok.kind is not kind:
            raise UTSSyntaxError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self._advance()

    def _expect_keyword(self, *words: str) -> Token:
        tok = self._cur
        if tok.kind is not TokenKind.IDENT or tok.text not in words:
            raise UTSSyntaxError(
                f"expected {' or '.join(repr(w) for w in words)}, "
                f"found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self._advance()

    # -- grammar ----------------------------------------------------------
    def parse_specfile(self) -> List[Declaration]:
        decls: List[Declaration] = []
        while self._cur.kind is not TokenKind.EOF:
            decls.append(self.parse_declaration())
        return decls

    def parse_declaration(self) -> Declaration:
        direction = self._expect_keyword("export", "import").text
        name = self._expect(TokenKind.IDENT, "procedure name").text
        kind = self._expect_keyword("prog").text
        self._expect(TokenKind.LPAREN, "'('")
        params: Tuple[Parameter, ...] = ()
        if self._cur.kind is not TokenKind.RPAREN:
            params = self.parse_paramlist()
        self._expect(TokenKind.RPAREN, "')'")
        return Declaration(direction, Signature(name=name, params=params, kind=kind))

    def parse_paramlist(self) -> Tuple[Parameter, ...]:
        params = [self.parse_param()]
        while self._cur.kind is TokenKind.COMMA:
            self._advance()
            params.append(self.parse_param())
        return tuple(params)

    def parse_param(self) -> Parameter:
        name_tok = self._expect(TokenKind.STRING, "quoted parameter name")
        mode_tok = self._expect(TokenKind.IDENT, "parameter mode (val/res/var)")
        mode = _MODES.get(mode_tok.text)
        if mode is None:
            raise UTSSyntaxError(
                f"unknown parameter mode {mode_tok.text!r}",
                mode_tok.line,
                mode_tok.column,
            )
        return Parameter(name=name_tok.text, mode=mode, type=self.parse_type())

    def parse_type(self) -> UTSType:
        tok = self._expect(TokenKind.IDENT, "type name")
        if tok.text in _SIMPLE_TYPES:
            return _SIMPLE_TYPES[tok.text]
        if tok.text == "array":
            self._expect(TokenKind.LBRACKET, "'['")
            length_tok = self._expect(TokenKind.NUMBER, "array length")
            self._expect(TokenKind.RBRACKET, "']'")
            self._expect_keyword("of")
            return ArrayType(length=int(length_tok.text), element=self.parse_type())
        if tok.text == "record":
            fields = [self.parse_field()]
            while self._cur.kind is TokenKind.SEMICOLON:
                self._advance()
                # allow a trailing semicolon before 'end'; 'end' followed
                # by ':' is a field named end (keywords are identifiers)
                if (self._cur.kind is TokenKind.IDENT and self._cur.text == "end"
                        and self._tokens[self._pos + 1].kind is not TokenKind.COLON):
                    break
                fields.append(self.parse_field())
            self._expect_keyword("end")
            return RecordType(tuple(fields))
        raise UTSSyntaxError(f"unknown type {tok.text!r}", tok.line, tok.column)

    def parse_field(self) -> RecordField:
        name = self._expect(TokenKind.IDENT, "field name").text
        self._expect(TokenKind.COLON, "':'")
        return RecordField(name=name, type=self.parse_type())


def parse_spec(source: str) -> List[Declaration]:
    """Parse a full specification file into declarations."""
    return _Parser(tokenize(source)).parse_specfile()


def parse_type(source: str) -> UTSType:
    """Parse a single type expression (useful in tests and tools)."""
    parser = _Parser(tokenize(source))
    t = parser.parse_type()
    tok = parser._cur
    if tok.kind is not TokenKind.EOF:
        raise UTSSyntaxError(f"trailing input after type: {tok.text!r}", tok.line, tok.column)
    return t
