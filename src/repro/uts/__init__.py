"""The Universal Type System (UTS).

UTS is the part of Schooner that masks data heterogeneity [Hayes89].  It
provides three things, each a submodule here:

* a Pascal-like **type specification language** for describing procedure
  parameters (:mod:`.lexer`, :mod:`.parser`, :mod:`.spec`),
* a **type model** with conformance checking (:mod:`.types`,
  :mod:`.values`),
* a **common data interchange format** plus per-architecture native
  formats, including a bit-accurate Cray Y-MP floating format
  (:mod:`.compiled`, :mod:`.native`).

:mod:`.compiled` is the one codec: per-type compiled encoder/decoder
plans and per-``(format, type, policy)`` native round trips that every
RPC, migration and checkpoint runs.  A differential harness beside the
tests (``tests/uts/conformance.py``) cross-checks every format, policy,
and codec path against the interpretive oracles in
``tests/uts/oracle.py`` and the documented semantics in
``docs/CODECS.md``.
"""

from .errors import (
    UTSCompatibilityError,
    UTSConversionError,
    UTSError,
    UTSRangeError,
    UTSSyntaxError,
    UTSTypeError,
)
from .compiled import (
    CompiledCodec,
    SignatureCodec,
    codec_for,
    native_roundtrip_for,
    precompile_signature,
    signature_codec,
)
from .native import (
    CrayFormat,
    IEEEFormat,
    NativeFormat,
    OutOfRangePolicy,
    VAXFormat,
)
from .parser import Declaration, parse_spec, parse_type
from .spec import SpecFile, render_signature
from .types import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    BooleanType,
    ByteType,
    DoubleType,
    FloatType,
    IntegerType,
    ParamMode,
    Parameter,
    RecordField,
    RecordType,
    Signature,
    StringType,
    UTSType,
)
from .values import conform, conform_args, conformer_for

__all__ = [
    # errors
    "UTSError",
    "UTSSyntaxError",
    "UTSTypeError",
    "UTSConversionError",
    "UTSRangeError",
    "UTSCompatibilityError",
    # types
    "UTSType",
    "IntegerType",
    "FloatType",
    "DoubleType",
    "ByteType",
    "StringType",
    "BooleanType",
    "ArrayType",
    "RecordField",
    "RecordType",
    "ParamMode",
    "Parameter",
    "Signature",
    "INTEGER",
    "FLOAT",
    "DOUBLE",
    "BYTE",
    "STRING",
    "BOOLEAN",
    # parsing / specs
    "parse_spec",
    "parse_type",
    "Declaration",
    "SpecFile",
    "render_signature",
    # values
    "conform",
    "conform_args",
    "conformer_for",
    # native formats
    "NativeFormat",
    "IEEEFormat",
    "CrayFormat",
    "VAXFormat",
    "OutOfRangePolicy",
    # compiled codec
    "CompiledCodec",
    "SignatureCodec",
    "codec_for",
    "signature_codec",
    "precompile_signature",
    "native_roundtrip_for",
]
