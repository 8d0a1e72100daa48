"""The runtime package imports no test-only dependency.

``networkx``, ``hypothesis`` and ``scipy`` are declared under the
``[test]`` extra only, so a plain ``pip install`` of the package brings
numpy alone.  Each check runs in a fresh interpreter: this one has long
since imported all three for the tests themselves.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.uts

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TEST_ONLY = ("networkx", "hypothesis", "scipy")


def run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRuntimeImportsNoTestDependency:
    def test_every_module_imports_without_them(self):
        out = run(f"""
            import importlib, pkgutil, sys
            for name in {TEST_ONLY!r}:
                sys.modules[name] = None  # any import of it now fails
            import repro

            def onerror(name):
                raise

            names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.", onerror)]
            for name in names:
                importlib.import_module(name)
            print(len(names))
        """)
        assert int(out) >= 100

    def test_the_serving_entry_points_leave_them_unimported(self):
        out = run(f"""
            import sys
            import repro.serve, repro.traffic
            print(sorted(name for name in {TEST_ONLY!r} if name in sys.modules))
        """)
        assert out.strip() == "[]"


#: what ``repro.uts`` exported only for tests; the interpreted twins live
#: on as oracles in ``tests/uts/oracle.py``
TEST_ONLY_UTS_NAMES = (
    "roundtrip_native", "roundtrip_native_interpreted", "check_compatibility",
    "zero_value", "values_equal", "identical",
    "encode_value", "encode_into", "decode_value", "encoded_size",
    "marshal_args", "marshal_args_into", "unmarshal_args",
)


class TestOneUTSCodec:
    def test_no_runtime_module_imports_the_tests(self):
        offenders = []
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                offenders += [f"{path.name}: {n}" for n in names
                              if n == "tests" or n.startswith("tests.")]
        assert offenders == []

    def test_the_interpreted_wire_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.uts.wire")

    def test_test_only_names_left_the_package(self):
        assert [n for n in TEST_ONLY_UTS_NAMES if hasattr(repro.uts, n)] == []
        assert set(TEST_ONLY_UTS_NAMES).isdisjoint(repro.uts.__all__)
