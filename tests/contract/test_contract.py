"""The tree reproduces the committed contract, and the tool that says so
names what moved.

The first test regenerates every row (about 20 s on a 2-core box) and
compares it with ``golden.json``.  The rest feed the comparison the
committed golden against perturbed copies of itself, so they serve
nothing.
"""

import copy
import math

import pytest

from tests.contract import __main__ as cli
from tests.contract.golden import dumps, generate, load, verdict


def test_the_tree_reproduces_the_golden():
    held, text = verdict(load(), generate(), explain=True)
    assert held, text


@pytest.fixture(scope="module")
def golden():
    return load()


def first_row(golden, prefix, **where):
    return next(row for row in golden["rows"] if row["row"].startswith(prefix)
                and all(row[k] == v for k, v in where.items()))


def perturbed(golden, rid, **fields):
    doc = copy.deepcopy(golden)
    next(row for row in doc["rows"] if row["row"] == rid).update(fields)
    return doc


@pytest.fixture
def run_cli(golden, monkeypatch, tmp_path, capsys):
    """``python -m tests.contract`` against a committed golden of
    ``doc``, with the committed golden standing in for a fresh run."""

    def run(doc, *argv):
        monkeypatch.setattr(cli, "GOLDEN", tmp_path / "golden.json")
        monkeypatch.setattr(cli, "generate", lambda: golden)
        cli.GOLDEN.write_text(dumps(doc), encoding="utf-8")
        status = cli.main(list(argv))
        return status, capsys.readouterr().out

    return run


class TestTheToolNamesWhatMoved:
    def test_the_committed_golden_against_itself(self, golden, run_cli):
        assert run_cli(golden, "--check") == (0, f"contract holds: {len(golden['rows'])} rows "
                                                 "equal to golden.json\n")

    def test_a_changed_status(self, golden, run_cli):
        row = first_row(golden, "batch/mixed/", status="completed")
        status, out = run_cli(perturbed(golden, row["row"], status="degraded"), "--explain")
        assert status == 1
        assert f"{row['row']}\n    status: golden 'degraded', now 'completed'" in out
        assert "only" not in out and "physics held" not in out
        status, out = run_cli(perturbed(golden, row["row"], status="degraded"), "--check")
        assert (status, f"{row['row']}: status") == (1, out.splitlines()[1])

    def test_one_ulp_of_virtual_time(self, golden, run_cli):
        row = first_row(golden, "workload/transient_remote/")
        ulp = math.nextafter(row["virtual_s"], math.inf)
        status, out = run_cli(perturbed(golden, row["row"], virtual_s=ulp), "--explain")
        assert status == 1
        assert f"    virtual_s: golden {ulp!r}, now {row['virtual_s']!r}" in out
        assert out.count("\n    ") == 1  # nothing else moved

    def test_one_point_clock_alone_holds_physics(self, golden, run_cli):
        row = first_row(golden, "workload/steady_near_opcache/")
        clocks = list(row["point_virtual_s"])
        clocks[-1] = math.nextafter(clocks[-1], math.inf)
        status, out = run_cli(perturbed(golden, row["row"], point_virtual_s=clocks), "--explain")
        assert status == 1
        assert "physics held: every status and results hash is equal" in out
        assert f"    point_virtual_s: golden {clocks!r}, now {row['point_virtual_s']!r}" in out
        assert out.count("\n    ") == 1  # nothing else moved

    def test_a_results_hash_is_physics(self, golden, run_cli):
        row = first_row(golden, "batch/mixed/", status="completed")
        status, out = run_cli(perturbed(golden, row["row"], results="0" * 64), "--explain")
        assert status == 1 and f"{row['row']}\n    results: golden " in out
        assert "physics held" not in out

    def test_a_digest_alone(self, golden, run_cli):
        row = first_row(golden, "workload/steady_cold_inline/")
        status, out = run_cli(perturbed(golden, row["row"], digest="0" * 64), "--explain")
        assert status == 1
        assert f"{row['row']}  (only the digest moved; every count and clock held)" in out
        assert "only digests moved: every count and clock held" in out
        assert "physics held: every status and results hash is equal" in out

    def test_a_row_gone_and_a_row_new(self, golden, run_cli):
        doc = copy.deepcopy(golden)
        doc["rows"][-1]["row"] = "report/renamed"
        status, out = run_cli(doc, "--check")
        assert status == 1
        assert "report/renamed: row gone" in out
        assert f"{golden['rows'][-1]['row']}: new row" in out

    def test_another_fingerprint_still_checks(self, golden, run_cli):
        other = copy.deepcopy(golden)
        other["fingerprint"] = {"python": "3.99.0", "numpy": "0.1.0"}
        status, out = run_cli(other, "--check")
        assert status == 0 and "the fingerprint differs" in out
        row = first_row(golden, "chaos/")
        status, out = run_cli(perturbed(other, row["row"], shed=row["shed"] + 1), "--check")
        assert status == 1
        assert "the fingerprint differs: the golden was made on numpy 0.1.0, python 3.99.0" in out
        assert f"{row['row']}: shed" in out
