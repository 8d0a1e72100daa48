"""The Universal Type System (UTS).

UTS is the part of Schooner that masks data heterogeneity [Hayes89].  It
provides three things, each a submodule here:

* a Pascal-like **type specification language** for describing procedure
  parameters (:mod:`.lexer`, :mod:`.parser`, :mod:`.spec`),
* a **type model** with conformance checking (:mod:`.types`,
  :mod:`.values`),
* a **common data interchange format** plus per-architecture native
  codecs, including a bit-accurate Cray Y-MP floating format
  (:mod:`.wire`, :mod:`.native`).

:mod:`.compiled` accelerates the codecs with per-type compiled
encoder/decoder plans (the RPC hot path).  A differential harness beside
the tests (``tests/uts/conformance.py``) cross-checks every format,
policy, and codec path against the documented semantics in
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
    roundtrip_native,
    roundtrip_native_interpreted,
)
from .parser import Declaration, parse_spec, parse_type
from .spec import SpecFile, check_compatibility, render_signature
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
from .values import (
    conform,
    conform_args,
    conformer_for,
    identical,
    values_equal,
    zero_value,
)
from .wire import (
    decode_value,
    encode_into,
    encode_value,
    encoded_size,
    marshal_args,
    marshal_args_into,
    unmarshal_args,
)

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
    "check_compatibility",
    "render_signature",
    # values
    "conform",
    "conform_args",
    "conformer_for",
    "zero_value",
    "values_equal",
    "identical",
    # wire
    "encode_value",
    "encode_into",
    "decode_value",
    "encoded_size",
    "marshal_args",
    "marshal_args_into",
    "unmarshal_args",
    # native formats
    "NativeFormat",
    "IEEEFormat",
    "CrayFormat",
    "VAXFormat",
    "OutOfRangePolicy",
    "roundtrip_native",
    "roundtrip_native_interpreted",
    # compiled fast path
    "CompiledCodec",
    "SignatureCodec",
    "codec_for",
    "signature_codec",
    "precompile_signature",
    "native_roundtrip_for",
]
