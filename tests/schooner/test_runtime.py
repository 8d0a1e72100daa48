"""Tests for the RPC call engine internals: result shaping, var
parameters, record/structured arguments, subset imports, cost model,
and failure injection."""

import pytest

from repro.machines import Language
from repro.network import NetworkError
from repro.schooner import (
    CallFailed,
    CostModel,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.schooner.runtime import _shape_results
from repro.uts import (
    DOUBLE,
    INTEGER,
    STRING,
    ParamMode,
    Parameter,
    RecordType,
    Signature,
    SpecFile,
)


def env_with(exe, machine="lerc-rs6000", path="/bin/exe"):
    env = SchoonerEnvironment.standard()
    env.park[machine].install(path, exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
    ctx.sch_contact_schx(machine, path)
    return env, manager, ctx


def simple_exe(name, spec_source, impl, language=Language.C, **proc_kw):
    spec = SpecFile.parse(spec_source)
    return Executable(
        name,
        (Procedure(name=name, signature=spec.export_named(name), impl=impl,
                   language=language, **proc_kw),),
    ), spec


class TestShapeResults:
    SIG = Signature(
        "f",
        (
            Parameter("a", ParamMode.VAL, DOUBLE),
            Parameter("x", ParamMode.RES, DOUBLE),
            Parameter("y", ParamMode.RES, INTEGER),
        ),
    )

    def test_dict_shape(self):
        assert _shape_results(self.SIG, {"x": 1.0, "y": 2}, {}) == {"x": 1.0, "y": 2}

    def test_tuple_shape_in_signature_order(self):
        assert _shape_results(self.SIG, (1.0, 2), {}) == {"x": 1.0, "y": 2}

    def test_tuple_wrong_arity_rejected(self):
        with pytest.raises(CallFailed, match="returned 1 values"):
            _shape_results(self.SIG, (1.0,), {})

    def test_bare_value_single_result(self):
        sig = Signature("g", (Parameter("out", ParamMode.RES, DOUBLE),))
        assert _shape_results(sig, 42.0, {}) == {"out": 42.0}

    def test_bare_value_multi_result_rejected(self):
        with pytest.raises(CallFailed, match="cannot map"):
            _shape_results(self.SIG, 42.0, {})

    def test_none_with_no_results(self):
        sig = Signature("h", (Parameter("in", ParamMode.VAL, DOUBLE),))
        assert _shape_results(sig, None, {"in": 1.0}) == {}

    def test_var_param_defaults_to_sent_value(self):
        sig = Signature(
            "v",
            (Parameter("buf", ParamMode.VAR, DOUBLE),
             Parameter("out", ParamMode.RES, DOUBLE)),
        )
        shaped = _shape_results(sig, {"out": 1.0}, {"buf": 9.0})
        assert shaped == {"out": 1.0, "buf": 9.0}


class TestVarParamsOverRPC:
    def test_var_roundtrip(self):
        exe, spec = simple_exe(
            "bump", 'export bump prog("count" var integer, "label" val string)',
            lambda count, label: {"count": count + 1},
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="bump")
        out = stub(count=41, label="x")
        assert out == {"count": 42}

    def test_var_unmodified_echoes_sent_value(self):
        exe, spec = simple_exe(
            "peek", 'export peek prog("data" var double, "len" res integer)',
            lambda data: {"len": 1},  # does not touch `data`
        )
        env, manager, ctx = env_with(exe)
        out = ctx.import_proc(spec.as_imports(), name="peek")(data=2.5)
        assert out == {"data": 2.5, "len": 1}


class TestStructuredOverRPC:
    REC_SPEC = (
        'export stats prog('
        '"pts" val array[3] of record x: double; y: double end,'
        '"centroid" res record x: double; y: double end)'
    )

    def test_record_arguments(self):
        def stats(pts):
            n = len(pts)
            return {"centroid": {"x": sum(p["x"] for p in pts) / n,
                                 "y": sum(p["y"] for p in pts) / n}}

        exe, spec = simple_exe("stats", self.REC_SPEC, stats)
        env, manager, ctx = env_with(exe)
        out = ctx.import_proc(spec.as_imports(), name="stats")(
            pts=[{"x": 0.0, "y": 0.0}, {"x": 2.0, "y": 0.0}, {"x": 1.0, "y": 3.0}]
        )
        assert out["centroid"] == {"x": 1.0, "y": 1.0}

    def test_string_arguments(self):
        exe, spec = simple_exe(
            "greet", 'export greet prog("name" val string, "msg" res string)',
            lambda name: f"hello, {name}",
        )
        env, manager, ctx = env_with(exe)
        assert ctx.import_proc(spec.as_imports(), name="greet").call1(
            name="Lewis"
        ) == "hello, Lewis"


class TestSubsetImportCalls:
    def test_call_through_subset_import(self):
        """Footnote 1: the import may be a subset of the export — the
        callee sees only the imported parameters."""
        exe, _ = simple_exe(
            "shaft2",
            'export shaft2 prog("a" val double, "b" val double, "c" val double,'
            ' "out" res double)',
            lambda a=0.0, b=0.0, c=0.0: a + b + c,
        )
        env, manager, ctx = env_with(exe)
        subset = SpecFile.parse(
            'import shaft2 prog("b" val double, "out" res double)'
        )
        stub = ctx.import_proc(subset, name="shaft2")
        assert stub.call1(b=5.0) == 5.0


class TestCostModel:
    def test_bigger_payload_more_virtual_time(self):
        exe, spec = simple_exe(
            "echo", 'export echo prog("s" val string, "r" res string)',
            lambda s: s,
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="echo")
        env.reset_traces()
        stub(s="x")
        small = env.traces[-1].total_s
        stub(s="x" * 100_000)
        large = env.traces[-1].total_s
        assert large > 2 * small

    def test_custom_cost_model(self):
        costs = CostModel(marshal_flops_per_byte=0.0, header_bytes=0,
                          spawn_seconds=0.0, control_message_bytes=0)
        exe, spec = simple_exe(
            "f", 'export f prog("x" val double, "y" res double)', lambda x: x
        )
        env = SchoonerEnvironment.standard(costs=costs)
        env.park["lerc-rs6000"].install("/bin/exe", exe)
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="m",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", "/bin/exe")
        stub = ctx.import_proc(spec.as_imports(), name="f")
        env.reset_traces()
        stub(x=1.0)
        trace = env.traces[-1]
        assert trace.client_cpu_s == 0.0
        assert trace.server_cpu_s == 0.0
        assert trace.network_s > 0  # the wire still costs


class TestFlopsModels:
    def test_callable_flops_model(self):
        """Cost can depend on the arguments (e.g. array length)."""
        exe, spec = simple_exe(
            "work",
            'export work prog("n" val integer, "r" res integer)',
            lambda n: n,
            flops=lambda args: 1e6 * args["n"],
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="work")
        env.reset_traces()
        stub(n=1)
        t1 = env.traces[-1].compute_s
        stub(n=100)
        t100 = env.traces[-1].compute_s
        assert t100 == pytest.approx(100 * t1, rel=1e-9)


class TestFailureInjection:
    def test_network_partition_fails_call(self):
        exe, spec = simple_exe(
            "f", 'export f prog("x" val double, "y" res double)', lambda x: x
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="f")
        stub(x=1.0)
        env.topology.partition("arizona", "lerc")
        with pytest.raises(NetworkError):
            stub(x=2.0)
        env.topology.heal("arizona", "lerc")
        assert stub.call1(x=3.0) == 3.0

    def test_type_error_in_arguments(self):
        exe, spec = simple_exe(
            "f", 'export f prog("x" val double, "y" res double)', lambda x: x
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="f")
        from repro.uts import UTSTypeError

        with pytest.raises(UTSTypeError):
            stub(x="not a number")

    def test_bad_result_type_from_impl(self):
        exe, spec = simple_exe(
            "f", 'export f prog("x" val double, "y" res double)',
            lambda x: "oops",
        )
        env, manager, ctx = env_with(exe)
        stub = ctx.import_proc(spec.as_imports(), name="f")
        from repro.uts import UTSTypeError

        with pytest.raises(UTSTypeError):
            stub(x=1.0)
