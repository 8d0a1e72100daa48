"""The compiled call is the call: a served cold F100 session marshals
every RPC through its plan's generated stubs.

A profile hook counts the Python-level calls made while one cold
session is served.  The three UTS passes the generated stubs replaced —
``conform_args`` (and the compiled conformer behind it) and
``SignatureCodec.encode_conformed_into``/``unmarshal`` — must not run at
all, while the seams the benchmark tracer reads stay on the path:
``SchoonerEnvironment.record_trace`` once per trace and
``Transport.send`` twice per RPC.

The sixth pass on the call path folded the per-call helpers around the
generated stubs into plan constants, per-placement wrappers and the
component bodies: a second cold session over a warm installation makes
no call into any of them while its calls are made, and the host
re-derives an instance's placement a bounded number of times per
instance, not once per call.
"""

import sys

from repro.core.schooner_host import SchoonerHost
from repro.machines.process import VirtualProcess
from repro.network.clock import Timeline
from repro.network.link import LinkModel
from repro.network.topology import Topology
from repro.network.transport import Transport
from repro.schooner.api import ModuleContext
from repro.schooner.lines import InstanceRecord
from repro.schooner.runtime import CallBatch, SchoonerEnvironment, execute_call
from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.tess import gas
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


#: what a call used to ask every time, by where it was asked.  The hop
#: (route record, link transfer time, liveness property) is counted
#: inside execute_call only: control messages (contact, lookup, start,
#: quit) still look their route up, as they should.
FOLDED_IN_THE_CALL = {
    Topology.route_record.__code__: "Topology.route_record",
    LinkModel.transfer_seconds.__code__: "LinkModel.transfer_seconds",
    VirtualProcess.alive.fget.__code__: "VirtualProcess.alive",
}

#: folded everywhere a served steady point runs: the clock reads of the
#: stub and the overlap batch, the branch timeline each overlapped call
#: built, and the gas model's property chains and station copies
FOLDED_EVERYWHERE = {
    Timeline.now.fget.__code__: "Timeline.now",
    Timeline.sync_to.__code__: "Timeline.sync_to",
    Timeline.branch.__code__: "Timeline.branch per call",
    CallBatch._require_open.__code__: "CallBatch._require_open per call",
    gas._far_scale.__code__: "gas._far_scale",
    gas.cp.__code__: "gas.cp",
    gas.gamma.__code__: "gas.gamma",
    gas.enthalpy.__code__: "gas.enthalpy",
    gas.temperature_from_enthalpy.__code__: "gas.temperature_from_enthalpy",
    gas.GasState.ht.fget.__code__: "GasState.ht",
    gas.GasState.cp.fget.__code__: "GasState.cp",
    gas.GasState.gamma.fget.__code__: "GasState.gamma",
    gas.GasState.with_.__code__: "GasState.with_",
}

#: the F100's adapted instances: two shafts, three ducts, the combustor
#: and the nozzle
F100_INSTANCES = 7


def test_a_warm_installation_s_cold_session_calls_no_folded_helper():
    inst = SharedInstallation.standard()
    # the first session builds the installation's plans, their hops and
    # the deck; the second is the one measured
    serve_sessions([SessionSpec(name="warm-up", points=(1.29,))], installation=inst, dedup=False)
    counts = dict.fromkeys(FOLDED_IN_THE_CALL.values(), 0)
    counts.update(dict.fromkeys(FOLDED_EVERYWHERE.values(), 0))
    counts.update(record_trace=0, rpc_sends=0, placed_alive=0, component_calls=0,
                  state_storage=0)
    components = {getattr(SchoonerHost, name).__code__ for name in (
        "duct", "combustor", "nozzle", "shaft_accel", "duct_pair", "shaft_accel_pair")}
    call, regions = execute_call.__code__, CallBatch.region.__wrapped__.__code__
    record_trace = SchoonerEnvironment.record_trace.__code__
    send, placed_alive = Transport.send.__code__, ModuleContext.placed_alive.__code__
    state_storage = InstanceRecord.state_storage.__code__
    per_batch = {CallBatch.__init__.__code__, regions}
    depth = {call: 0}

    def hook(frame, event, arg):
        code = frame.f_code
        if code in depth:
            depth[code] += 1 if event == "call" else -1 if event == "return" else 0
        if event != "call":
            return
        if code in FOLDED_IN_THE_CALL:
            counts[FOLDED_IN_THE_CALL[code]] += depth[call] > 0
        elif code in FOLDED_EVERYWHERE:
            # a batch branches the caller once when it opens, and each
            # probe region checks it is open and branches that once
            counts[FOLDED_EVERYWHERE[code]] += frame.f_back.f_code not in per_batch
        elif code is record_trace:
            counts["record_trace"] += 1
        elif code is placed_alive:
            counts["placed_alive"] += 1
        elif code is state_storage:
            counts["state_storage"] += 1
        elif code in components:
            counts["component_calls"] += 1
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
    assert counts.pop("component_calls") > 50
    # a placement is checked at set-up, by its contact's own idempotence
    # test and when its first call binds the wrapper; the calls after
    # that ride the wrapper
    assert counts.pop("placed_alive") <= 3 * F100_INSTANCES
    # a stateful call finds its executable's state in the process's
    # memory; only the first call of each process makes it
    assert counts.pop("state_storage") <= F100_INSTANCES
    assert counts == {
        **dict.fromkeys(FOLDED_IN_THE_CALL.values(), 0),
        **dict.fromkeys(FOLDED_EVERYWHERE.values(), 0),
        "record_trace": result.traces,
        "rpc_sends": 2 * result.traces,
    }
