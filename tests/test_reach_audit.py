"""Smoke test of the reach audit (``python -m tests.reach_audit``) on
one entry point, ``examples/quickstart.py``."""

import subprocess
import sys
from pathlib import Path

from tests.reach_audit import ENTRY_POINTS, functions

ROOT = Path(__file__).resolve().parent.parent


def listed(report: str) -> dict:
    """The report as {file: [function, ...]}."""
    out, current = {}, None
    for line in report.splitlines():
        if line.startswith("  "):
            out[current].append(line.split()[0])
        elif not line.startswith("unreached:"):
            current = line.split(":")[0]
            out[current] = []
    return out


def test_quickstart_reaches_the_stub_compiler():
    proc = subprocess.run(
        [sys.executable, "-m", "tests.reach_audit", "example quickstart"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tracing example quickstart" in proc.stderr
    report = proc.stdout
    assert report.splitlines()[-1].startswith("unreached: ")
    files = listed(report)
    assert "call_stubs" not in files.get("repro/schooner/stubgen.py", [])
    assert "execute_call" not in files.get("repro/schooner/runtime.py", [])
    # something the quickstart does not run is listed
    assert "NPSSExecutive.run_interactive" in files["repro/core/executive.py"]


def test_the_audit_covers_every_example_and_stub_compiler():
    names = {name for name, _ in ENTRY_POINTS}
    assert {f"example {p.stem}" for p in (ROOT / "examples").glob("*.py")} <= names
    assert any(f.qualname == "call_stubs" and f.path == "repro/schooner/stubgen.py"
               for f in functions())
