"""Reach audit: which ``src/`` functions no user entry point reaches.

    python -m tests.reach_audit [NAME ...]

Runs each entry point in ``ENTRY_POINTS`` (or only those whose name
contains one of the given ``NAME``s) in a fresh interpreter under a
``sys.setprofile`` hook, then prints every function under
``src/repro`` that none of them called, grouped by file, with its line
span and a total.  A nested function is listed only when the function
around it was reached; otherwise its lines are already in its parent's
span.

It is a report, not a gate: code that only shard workers, fault paths
or error branches run shows up here too, and deciding what to do with
it is a reader's call.  Code run in processes the entry points spawn
(shard workers, the bench harness's set-up timing) is not traced.
Run from the repository root; the full list takes several minutes.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: CI's Gear snippet: a served transient never reaches Gear's linear solve
GEAR_SNIPPET = """\
from repro.core import NPSSExecutive
ex = NPSSExecutive()
m = ex.build_f100_network()
m["system"].set_param("transient method", "Gear")
m["system"].set_param("transient seconds", 0.2)
m["combustor"].set_param("fuel flow", 1.35)
m["combustor"].set_param("fuel flow-op", 1.5)
ex.execute()
r = ex.transient_result
assert r.method == "Gear" and r.ode.newton_iterations > 0
"""

#: the paper-artifact benches (pytest files under ``benchmarks/``)
PAPER_BENCHES = (
    "bottleneck", "contention", "failover", "figure1_program",
    "figure2_f100_network", "lines", "migration", "operating_line",
    "solvers", "startup_protocol", "table1_module_tests",
    "table2_combined", "uts_encoding", "zooming",
)

BENCH_WORKLOADS = (
    "steady_cold_inline", "steady_warm_exact", "steady_near_opcache",
    "transient_remote", "traffic_open_loop", "steady_cold_shard2",
)

#: (name, interpreter arguments): every user entry point of the audit
ENTRY_POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro tour", ("-m", "repro")),
    ("repro serve", ("-m", "repro", "serve", "--sessions", "4", "--points", "1",
                     "--transient-every", "2")),
    ("repro serve shard", ("-m", "repro", "serve", "--sessions", "4", "--points", "1",
                           "--mode", "shard", "--workers", "2")),
    ("repro faults", ("-m", "repro", "faults", "--quick")),
    *((f"repro faults {plan}", ("-m", "repro", "faults", "--quick", "--plan", plan))
      for plan in ("machine-crash", "process-crash", "packet-loss")),
    ("repro chaos overload", ("-m", "repro", "chaos", "overload", "--sessions", "4",
                              "--json")),
    ("repro chaos", ("-m", "repro", "chaos")),
    ("repro chaos crash-shard", ("-m", "repro", "chaos", "crash-shard")),
    ("repro traffic smoke", ("-m", "repro", "traffic", "smoke", "--sessions", "2",
                             "--json")),
    ("repro traffic heavy-tail", ("-m", "repro", "traffic", "heavy-tail",
                                  "--sessions", "2", "--json")),
    # the stock overload sweep sheds, so it runs the retry-on-shed feedback
    ("repro traffic overload", ("-m", "repro", "traffic", "overload", "--json")),
    *((f"example {p.stem}", (f"examples/{p.name}",))
      for p in sorted((ROOT / "examples").glob("*.py"))),
    ("report", ("benchmarks/report.py",)),
    # a timed pytest-benchmark round pauses profile hooks: run untimed
    *((f"bench {name}", ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--benchmark-disable", f"benchmarks/bench_{name}.py"))
      for name in PAPER_BENCHES),
    *((f"workload {w}", ("bench/run.py", "--workload", w, "--quick", "--trace", "1",
                         "--seconds", "0"))
      for w in BENCH_WORKLOADS),
    ("gear snippet", ("-c", GEAR_SNIPPET)),
)

#: runs the target under the profile hook and writes every (file, first
#: line) of a code object called under ``src/repro`` to ``argv[1]``
_BOOTSTRAP = """\
import atexit, json, os, runpy, sys, threading
out, args = sys.argv[1], sys.argv[2:]
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

def dump():
    sys.setprofile(None)
    prefix = {package!r}
    with open(out, "w") as fh:
        json.dump(sorted({{(c.co_filename, c.co_firstlineno) for c in seen
                          if c.co_filename.startswith(prefix)}}), fh)

atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
if args[0] == "-m":
    sys.argv = [args[1], *args[2:]]
    runpy.run_module(args[1], run_name="__main__", alter_sys=True)
elif args[0] == "-c":
    sys.argv = ["-c", *args[2:]]
    exec(compile(args[1], "<string>", "exec"), {{"__name__": "__main__"}})
else:
    sys.argv = list(args)
    sys.path.insert(0, os.path.dirname(args[0]))
    runpy.run_path(args[0], run_name="__main__")
"""


@dataclass(frozen=True)
class Function:
    path: str  # relative to src/
    qualname: str
    first: int  # a code object's co_firstlineno: the first decorator's line
    last: int
    parent: Optional[Tuple[str, int]] = None  # (path, first) of the enclosing function

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    found: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))

        def walk(node, prefix: str, parent) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    fn = Function(rel, prefix + child.name, first, child.end_lineno, parent)
                    found.append(fn)
                    walk(child, fn.qualname + ".", (rel, first))
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", parent)
                else:
                    walk(child, prefix, parent)

        walk(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def reached_by(args: Sequence[str], timeout: float = 1800.0) -> Set[Tuple[str, int]]:
    """Run one entry point in a fresh interpreter; the (path under
    ``src/``, first line) of every ``src/repro`` function it called."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        proc = subprocess.run(
            [sys.executable, "-c", _BOOTSTRAP.format(package=str(PACKAGE) + os.sep),
             str(out), *args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            print(f"  (exit {proc.returncode}) {proc.stderr.strip()[-300:]}", file=sys.stderr)
        if not out.is_file():
            return set()
        return {(str(Path(f).relative_to(SRC)), line)
                for f, line in json.loads(out.read_text())}


def unreached(reached: Set[Tuple[str, int]], universe: Iterable[Function]) -> List[Function]:
    """The functions not in ``reached`` whose enclosing function (if
    any) was reached."""
    return [fn for fn in universe
            if (fn.path, fn.first) not in reached
            and (fn.parent is None or fn.parent in reached)]


def report(missing: List[Function], universe: List[Function]) -> str:
    by_file: Dict[str, List[Function]] = {}
    for fn in missing:
        by_file.setdefault(fn.path, []).append(fn)
    out = []
    for path, fns in sorted(by_file.items()):
        out.append(f"{path}: {sum(f.lines for f in fns)} lines")
        out.extend(f"  {f.qualname} ({f.lines})" for f in fns)
    total = sum(f.lines for f in universe if f.parent is None)
    out.append(f"unreached: {sum(f.lines for f in missing)} of {total} function lines "
               f"in src/ ({len(missing)} functions)")
    return "\n".join(out)


def main(argv: Sequence[str] = ()) -> int:
    chosen = [(name, args) for name, args in ENTRY_POINTS
              if not argv or any(word in name for word in argv)]
    if not chosen:
        print(f"no entry point matches {' '.join(argv)!r}", file=sys.stderr)
        return 2
    reached: Set[Tuple[str, int]] = set()
    for name, args in chosen:
        print(f"tracing {name} ...", file=sys.stderr, flush=True)
        reached |= reached_by(args)
    universe = functions()
    print(report(unreached(reached, universe), universe))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
