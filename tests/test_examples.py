"""Smoke tests: every example script and the package entry point run to
completion, each in a fresh interpreter on ``src/``, and print their
headline results.

The examples are the user paths DESIGN.md §3 names for the paper claims
that no other entry point reaches (interactive runs, multi-format
export, the second engine configuration, shared procedures), so a
script that stops running, or stops reaching its claim, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"

EXPECTED_MARKER = {
    "quickstart.py": "remote shaft() on the Cray",
    "f100_engine.py": "agreement with local-only thrust",
    "migration_and_lines.py": "Manager persistent: True",
    "parallel_encapsulation.py": "encapsulated-cluster speedup",
    "wan_placement.py": "lowest per-call total",
    "zooming.py": "extracted efficiency",
    "engine_test_cell.py": "the margin the test cell exists to quantify",
    "cycle_design_study.py": "good enough to pick the cycle",
}

#: what each user path of DESIGN.md §3 prints when it reaches its claim
USER_PATH_MARKERS = {
    "engine_test_cell.py": (
        "interactive run: fuel dial",
        "interactive.csv (CSVWriter)",
        "interactive.fld (AVSFieldWriter)",
        "# AVS field file",
        "interactive.xv (KhorosWriter)",
    ),
    "cycle_design_study.py": ("turbojet design closure", "turbojet fuel step"),
    "migration_and_lines.py": (
        "shared process alive: True",
        "moved the shared procedure to the Cray for every line",
        "stop_shared ended it for every line",
    ),
}


def run_script(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env=env,
    )


def test_every_example_is_run():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(EXPECTED_MARKER)


@pytest.mark.parametrize("script,marker", sorted(EXPECTED_MARKER.items()))
def test_example_runs(script, marker):
    result = run_script([str(EXAMPLES / script)])
    assert result.returncode == 0, result.stderr[-2000:]
    for text in (marker, *USER_PATH_MARKERS.get(script, ())):
        assert text in result.stdout


def test_python_dash_m_repro():
    result = run_script(["-m", "repro"])
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Table-2 distributed" in result.stdout
    assert "agrees to" in result.stdout
