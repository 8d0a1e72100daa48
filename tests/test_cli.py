"""``python -m repro``: one parser for the four subcommands, and every
``--json`` output is JSON lines of flat records."""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli
from repro.faults.demo import run_demo
from repro.records import render
from repro.serve import serve_sessions
from repro.serve.demo import build_session_specs

SUBCOMMANDS = ("serve", "traffic", "chaos", "faults")


def _exit_code(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code, capsys.readouterr()


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _json_lines(text):
    records = [json.loads(line, parse_constant=_refuse_constant)
               for line in text.splitlines()]
    assert records, "no records printed"
    for r in records:
        assert isinstance(r, dict)
        assert isinstance(r["record"], str)
        for key, value in r.items():
            assert isinstance(value, (str, int, float, bool, type(None))), key
    return records


class TestParser:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code, out = _exit_code(capsys, ["serv"])
        assert code == 2
        assert "invalid choice: 'serv'" in out.err
        usage = out.err.splitlines()[0]
        assert usage.startswith("usage:")
        for name in SUBCOMMANDS:
            assert name in usage

    def test_help_lists_the_subcommands(self, capsys):
        code, out = _exit_code(capsys, ["--help"])
        assert code == 0
        for name in SUBCOMMANDS:
            assert name in out.out

    def test_no_arguments_runs_the_tour(self, monkeypatch):
        monkeypatch.setattr(cli, "_tour", lambda: 41)
        assert cli.main([]) == 41

    @pytest.mark.parametrize("argv", [
        ["serve", "--mode", "shard", "--workers", "0"],
        ["serve", "--workers", "-2"],
        ["serve", "--sessions", "0"],
        ["traffic", "smoke", "--sessions", "-1"],
        ["chaos", "overload", "--sessions", "0"],
        ["serve", "--sessions", "many"],
    ])
    def test_non_positive_counts_are_usage_errors(self, capsys, argv):
        code, out = _exit_code(capsys, argv)
        assert code == 2
        assert "is not a positive integer" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("argv", [
        ["serve", "--transport", "shm"],
        ["chaos", "--no-solo-check"],
        ["faults", "--checkpoint-interval", "1.0"],
    ])
    def test_removed_options_are_refused(self, capsys, argv):
        code, out = _exit_code(capsys, argv)
        assert code == 2
        assert "unrecognized arguments" in out.err


    @pytest.mark.parametrize("argv, offender", [
        (["chaos", "crash-heavy", "--mode", "shard", "--sessions", "2"], "crash-heavy"),
        (["chaos", "crash-shard", "overload", "--mode", "shard"], "overload"),
    ])
    def test_shard_mode_refuses_fault_plan_configs(self, capsys, argv, offender):
        """A config whose sessions draw fault plans is refused before
        anything is served: those sessions are served inline only."""
        code, out = _exit_code(capsys, argv)
        assert code == 2
        assert out.out == ""
        assert f"config(s) {offender} draw" in out.err
        assert "served inline" in out.err
        assert "Traceback" not in out.err


class TestJsonLines:
    def test_serve(self, capsys):
        assert cli.main(["serve", "--sessions", "4", "--points", "1", "--json"]) == 0
        records = _json_lines(capsys.readouterr().out)
        assert records[0]["record"] == "serve"
        sessions = [r for r in records if r["record"] == "session"]
        expected = serve_sessions(build_session_specs(4, points=1))
        assert [(r["name"], r["digest"]) for r in sessions] == [
            (r.name, r.digest) for r in expected.results
        ]

    def test_traffic(self, capsys):
        status = cli.main(["traffic", "smoke", "--sessions", "2", "--json"])
        records = _json_lines(capsys.readouterr().out)
        kinds = {r["record"] for r in records}
        assert kinds == {"sweep_row", "knee"}
        knees = [r for r in records if r["record"] == "knee"]
        # one sweep: the exit status says whether any of its arms has a
        # non-monotone tail past the knee
        assert status == int(any(not k["monotone_past_knee"] for k in knees))

    def test_chaos(self, capsys):
        status = cli.main(["chaos", "overload", "--sessions", "4", "--json"])
        records = _json_lines(capsys.readouterr().out)
        (soak,) = [r for r in records if r["record"] == "soak"]
        violations = [r for r in records if r["record"] == "violation"]
        assert soak["violations"] == len(violations)
        assert status == len(violations) == 0
        assert soak["sessions"] == 4 and soak["replay_identical"] is True

    def test_faults(self, capsys):
        assert cli.main(["faults", "--quick", "--json"]) == 0
        records = _json_lines(capsys.readouterr().out)
        head = records[0]
        assert head["record"] == "faults" and head["ok"] is True
        assert head["digest"] == run_demo("machine-crash", seed=0, quick=True)["digest"]
        assert {r["record"] for r in records[1:]} == {"injection", "recovery"}


class TestRender:
    def test_one_table_per_run_of_one_kind(self):
        text = render([
            {"record": "a", "x": 1, "y": None},
            {"record": "a", "x": 22.5, "z": "s"},
            {"record": "b", "x": True},
            {"record": "a", "x": 3},
        ])
        blocks = text.split("\n\n")
        assert [b.splitlines()[0] for b in blocks] == ["[a]", "[b]", "[a]"]
        header, first, second = blocks[0].splitlines()[1:]
        assert header.split() == ["x", "y", "z"]
        assert first.split() == ["1", "-"]
        assert second.split() == ["22.5", "s"]

    def test_json_lines_refuse_nan_and_nesting(self):
        assert render([{"record": "a", "v": None}], as_json=True) == (
            '{"record": "a", "v": null}'
        )
        with pytest.raises(ValueError):
            render([{"record": "a", "v": float("nan")}], as_json=True)
        with pytest.raises(TypeError, match="not a scalar"):
            render([{"record": "a", "v": {"nested": 1}}])
