"""The stub compiler's generated call stubs against the three passes.

``execute_call`` walks four functions that
:func:`repro.schooner.stubgen.call_stubs` generates per call plan.  These
tests send hostile values through them and through the reference passes
they replaced (``conform_args``, the compiled native round trips, the
``SignatureCodec``) for every park native format on both ends and both
out-of-range policies, and hold bytes, values and errors — type and
message — equal.  End to end, a client-side error is raised before
anything is sent and a server-side one after the request was delivered.
"""

import math
import sys

import numpy as np
import pytest

from repro.machines import Language
from repro.schooner import (
    CallFailed,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.schooner.stubgen import call_stubs
from repro.uts import (
    OutOfRangePolicy,
    SpecFile,
    UTSConversionError,
    UTSRangeError,
    UTSTypeError,
)

from .conformance import CRAY_OVERFLOW, FORMATS, POLICIES, check_call_stubs

MIXED = SpecFile.parse(
    'export mix prog("x" val double, "n" val integer, "f" val float, '
    '"xs" val array[3] of double, "ok" val boolean, "v" var double, '
    '"y" res double, "m" res integer, "ys" res array[2] of double)'
).export_named("mix")
WORDS = SpecFile.parse(
    'export words prog("s" val string, "x" val double, "t" res string, "y" res double)'
).export_named("words")
CASES = [(a, b, p) for a in FORMATS for b in FORMATS for p in POLICIES]

HOSTILE_DOUBLES = (
    1.0 / 3.0, np.float64(1.0 / 3.0), 7, True, math.nan, math.inf, -math.inf,
    0.0, -0.0, 5e-324, -2.5e-310, sys.float_info.min, CRAY_OVERFLOW,
    -CRAY_OVERFLOW, sys.float_info.max, 1.7e38, 1e300, np.float32(1.5), "1.0", None,
)


def _args(x, **over):
    args = {"x": x, "n": 3, "f": 0.1, "xs": [x, 1.0, -2.0], "ok": False, "v": x}
    args.update(over)
    return args


def _id(case):
    caller, callee, policy = case
    return f"{caller.name}-{callee.name}-{policy.value}"


@pytest.mark.parametrize("case", CASES, ids=_id)
class TestAgainstThePasses:
    def test_hostile_doubles_everywhere(self, case):
        issues = []
        for x in HOSTILE_DOUBLES:
            issues += check_call_stubs(MIXED, *case, _args(x), (x, 2, [x, x], x))
        assert issues == []

    def test_hostile_integers_arrays_and_booleans(self, case):
        issues = []
        for over in (
            {"n": 2**31}, {"n": -(2**63)}, {"n": 2**63}, {"n": np.int64(-5)},
            {"n": True}, {"n": 1.0}, {"ok": 1}, {"ok": np.bool_(True)},
            {"xs": [1.0, 2.0]}, {"xs": (1.0, 2.0, 3.0)}, {"xs": np.array([1.0, 2.0, 3.0])},
            {"xs": [1.0, 2.0, 3.0, 4.0]}, {"xs": np.zeros((3, 1))}, {"f": 1e39},
        ):
            issues += check_call_stubs(MIXED, *case, _args(0.5, **over), (0.5, 1, [0.5, 0.25]))
        assert issues == []

    def test_wrong_and_extra_names(self, case):
        issues = []
        for args in (_args(1.0, extra=1), {"x": 1.0}, {}, {**_args(1.0), "y": 2.0}):
            issues += check_call_stubs(MIXED, *case, args, (1.0, 1, [1.0, 1.0]))
        assert issues == []

    def test_results_of_every_shape(self, case):
        issues = []
        for raw in (
            (1.0, 2, [3.0, 4.0], 9.0),  # one too many
            (1.0, 2),  # one too few
            [1.0, 2, [3.0, 4.0], 5.0],  # a list is not a tuple
            {"y": 1.0, "m": 2, "ys": [3.0, 4.0]},  # "v" keeps its sent value
            {"y": 1.0, "m": 2, "ys": [3.0, 4.0], "v": -1.5},
            {"y": 1.0, "m": 2, "ys": [3.0, 4.0], "v": 1.0, "w": 0},
            {"y": 1.0}, None, 1.0, (np.float64(2.0), np.int64(3), (1.0, 2.0), math.inf),
            (1e300, 2**40, [math.nan, -0.0], 5e-324),
        ):
            issues += check_call_stubs(MIXED, *case, _args(0.5), raw)
        assert issues == []

    def test_a_message_with_strings(self, case):
        issues = []
        for s, x in (("", 1.0), ("héllo", math.inf), ("x" * 300, -0.0), (7, 1.0), ("a", None)):
            for raw in (("back", x), ("back",), {"t": "back", "y": x}, "bare"):
                issues += check_call_stubs(WORDS, *case, {"s": s, "x": x}, raw)
        assert issues == []

    def test_wrong_body_sizes(self, case):
        stubs = call_stubs(MIXED, *case[:2], case[2])
        assert stubs.request_bytes == 8 + 8 + 4 + 24 + 1 + 8
        assert stubs.reply_bytes == 8 + 8 + 8 + 16
        issues = check_call_stubs(MIXED, *case, _args(1.0), (1.0, 2, [3.0, 4.0], 5.0),
                                  noise=bytes(range(45)))
        assert issues == []


class TestWhatServeHandsTheImplementation:
    @pytest.mark.parametrize("wants", [(False, False), (True, False), (False, True), (True, True)])
    def test_state_and_timeline_when_wanted(self, wants):
        for case in CASES[:4]:
            assert check_call_stubs(MIXED, *case, _args(0.25), (1.0, 2, [3.0, 4.0]),
                                    wants_state=wants[0], wants_timeline=wants[1]) == []

    def test_parameter_names_that_are_not_keywords(self):
        sig = SpecFile.parse(
            'export odd prog("in" val double, "my-x" val integer, "_state" val double, '
            '"r" res double)'
        ).export_named("odd")
        for case in CASES[:6]:
            for wants in ((False, False), (True, True)):
                assert check_call_stubs(
                    sig, *case, {"in": 1.5, "my-x": 2, "_state": 3.0}, 4.0,
                    wants_state=wants[0], wants_timeline=wants[1],
                ) == []

    def test_an_empty_signature(self):
        sig = SpecFile.parse("export nop prog()").export_named("nop")
        for case in CASES[:6]:
            for raw in (None, (), {}, 1, {"x": 1}):
                assert check_call_stubs(sig, *case, {}, raw) == []


# --------------------------------------------------------- end to end


def _world(impl, callee="lerc-convex"):
    spec = SpecFile.parse('export echo prog("x" val double, "n" val integer, "y" res double)')
    env = SchoonerEnvironment.standard()
    exe = Executable("echo", (Procedure(
        name="echo", signature=spec.export_named("echo"), impl=impl, language=Language.C),))
    env.park[callee].install("/bin/echo", exe)
    home = env.park["ua-sparc10"]
    manager = Manager(env=env, host=home, mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=manager, module_name="m", machine=home)
    ctx.sch_contact_schx(callee, "/bin/echo")
    stub = ctx.import_proc(spec.as_imports(), name="echo")
    assert stub.call1(x=1.0, n=1) == 1.0
    return env, stub


def _sent(env):
    by_kind = env.transport.stats.by_kind
    return by_kind.get("call:echo", 0), by_kind.get("reply:echo", 0)


class TestWhereAnErrorIsRaised:
    @pytest.mark.parametrize("args, error", [
        ({"x": "one", "n": 1}, UTSTypeError),
        ({"x": 1.0, "n": 1, "z": 0}, UTSTypeError),
        ({"x": 1.0, "n": 2**31}, UTSRangeError),  # the SPARC caller's 32-bit integer
    ])
    def test_client_side_errors_come_before_any_send(self, args, error):
        env, stub = _world(lambda x, n: x)
        before, traces, now = _sent(env), len(env.traces), stub.line.timeline.now
        with pytest.raises(error):
            stub(**args)
        assert _sent(env) == before
        assert len(env.traces) == traces and stub.line.timeline.now == now

    @pytest.mark.parametrize("x, error", [
        (1e300, UTSRangeError),  # beyond the Convex's D_floating range
        (math.nan, UTSConversionError),  # legal on the SPARC, no VAX encoding
    ])
    def test_server_side_errors_come_after_the_request_is_delivered(self, x, error):
        seen = []
        env, stub = _world(lambda x, n: (seen.append(x), x)[1])
        before = _sent(env)
        seen.clear()
        with pytest.raises(error):
            stub(x=x, n=1)
        assert seen == [], "the implementation never ran"
        assert _sent(env) == (before[0] + 1, before[1]), "request delivered, no reply"

    def test_a_result_the_signature_cannot_hold_fails_the_call_on_the_server(self):
        env, stub = _world(lambda x, n: (x, x) if n == 2 else x)
        before = _sent(env)
        with pytest.raises(CallFailed, match="returned 2 values"):
            stub(x=1.0, n=2)
        assert _sent(env) == (before[0] + 1, before[1])


class TestCall1RefusesFirst:
    def test_two_results_refused_before_the_call(self):
        runs = []
        spec = SpecFile.parse(
            'export two prog("x" val double, "a" res double, "b" res double)'
        )
        env = SchoonerEnvironment.standard()
        exe = Executable("two", (Procedure(
            name="two", signature=spec.export_named("two"),
            impl=lambda x: (runs.append(x), (x, x))[1], language=Language.C),))
        env.park["lerc-rs6000"].install("/bin/two", exe)
        home = env.park["ua-sparc10"]
        manager = Manager(env=env, host=home, mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="m", machine=home)
        ctx.sch_contact_schx("lerc-rs6000", "/bin/two")
        stub = ctx.import_proc(spec.as_imports(), name="two")
        traces, now = len(env.traces), stub.line.timeline.now
        with pytest.raises(ValueError, match="2 result parameters"):
            stub.call1(x=1.0)
        assert runs == [], "the implementation did not run"
        assert len(env.traces) == traces, "no trace was added"
        assert stub.line.timeline.now == now, "the timeline did not move"
        assert stub(x=1.0) == {"a": 1.0, "b": 1.0}


def test_the_range_policy_is_part_of_the_key():
    cray = next(f for f in FORMATS if f.name == "cray")
    ieee = FORMATS[0]
    strict = call_stubs(MIXED, ieee, cray, OutOfRangePolicy.ERROR)
    lax = call_stubs(MIXED, ieee, cray, OutOfRangePolicy.INFINITY)
    assert strict is not lax
    assert strict is call_stubs(MIXED, ieee, cray, OutOfRangePolicy.ERROR)
    assert [n for n, _ in strict.callee_recv] == ["x", "n", "f", "xs", "v"]
    assert [n for n, _ in strict.caller_send] == ["n", "f"]
