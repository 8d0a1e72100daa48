"""The compiled call is the call: a served cold F100 session marshals
every RPC through its plan's generated stubs.

A profile hook counts the Python-level calls made while one cold
session is served.  The three UTS passes the generated stubs replaced —
``conform_args`` (and the compiled conformer behind it) and
``SignatureCodec.encode_conformed_into``/``unmarshal`` — must not run at
all, while the seams the benchmark tracer reads stay on the path:
``SchoonerEnvironment.record_trace`` once per trace and
``Transport.send`` twice per RPC.
"""

import sys

from repro.network.transport import Transport
from repro.schooner.runtime import SchoonerEnvironment
from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.uts.compiled import SignatureCodec
from repro.uts.values import conform_args

PASSES = {
    conform_args.__code__: "conform_args",
    SignatureCodec.encode_conformed_into.__code__: "SignatureCodec.encode_conformed_into",
    SignatureCodec.unmarshal.__code__: "SignatureCodec.unmarshal",
}


def test_a_cold_session_runs_no_interpreted_pass():
    inst = SharedInstallation.standard()
    counts = dict.fromkeys(PASSES.values(), 0)
    counts.update(conform_sig_args=0, record_trace=0, rpc_sends=0)
    record_trace = SchoonerEnvironment.record_trace.__code__
    send = Transport.send.__code__

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in PASSES:
            counts[PASSES[code]] += 1
        elif code.co_name == "conform_sig_args":  # the compiled conformer
            counts["conform_sig_args"] += 1
        elif code is record_trace:
            counts["record_trace"] += 1
        elif code is send and frame.f_locals["kind"].startswith(("call:", "reply:")):
            counts["rpc_sends"] += 1

    sys.setprofile(hook)
    try:
        report = serve_sessions(
            [SessionSpec(name="cold", points=(1.30,))], installation=inst, dedup=False
        )
    finally:
        sys.setprofile(None)
    (result,) = report.results
    assert result.status == "completed" and result.traces > 50
    assert counts == {
        "conform_args": 0,
        "SignatureCodec.encode_conformed_into": 0,
        "SignatureCodec.unmarshal": 0,
        "conform_sig_args": 0,
        "record_trace": result.traces,
        "rpc_sends": 2 * result.traces,
    }
