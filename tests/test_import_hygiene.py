"""The runtime package imports no test-only dependency.

``networkx``, ``hypothesis`` and ``scipy`` are declared under the
``[test]`` extra only, so a plain ``pip install`` of the package brings
numpy alone.  Each check runs in a fresh interpreter: this one has long
since imported all three for the tests themselves.
"""

import os
import subprocess
import sys
import textwrap

import repro

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
