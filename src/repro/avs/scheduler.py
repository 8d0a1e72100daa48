"""The dataflow scheduler.

Executes a network in topological order, feeding each module the values
on its connected input ports plus its own defaults.  Supports the
interaction pattern the paper highlights: "intermediate results can be
viewed and parameters modified to affect subsequent parts of the
computation" — after a widget change, only the affected module and its
downstream cone re-execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from .errors import ComputeError, NetworkEditError
from .editor import NetworkEditor

__all__ = ["DataflowScheduler", "ExecutionReport"]


@dataclass
class ExecutionReport:
    """What one scheduler pass did."""

    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)


@dataclass
class DataflowScheduler:
    """Runs a :class:`NetworkEditor`'s module graph."""

    editor: NetworkEditor

    def _gather_inputs(self, name: str) -> Dict[str, Any]:
        inputs: Dict[str, Any] = {}
        for conn in self.editor.incoming(name):
            src_mod = self.editor.module(conn.src)
            port = src_mod.output_ports[conn.out_port]
            if not port.has_value:
                raise ComputeError(
                    f"{name}: upstream output {conn.src}.{conn.out_port} "
                    f"has no value (module not yet executed?)"
                )
            inputs[conn.in_port] = port.value
        return inputs

    def _order(self) -> List[str]:
        return [name for layer in self.editor.generations() for name in layer]

    def execute_all(self) -> ExecutionReport:
        """Run every module once, upstream before downstream."""
        report = ExecutionReport()
        for name in self._order():
            module = self.editor.module(name)
            module.run_compute(self._gather_inputs(name))
            report.executed.append(name)
        return report

    def execute_dirty(self) -> ExecutionReport:
        """Run only modules whose widgets changed (or that have never
        run to completion), plus everything downstream of them."""
        dirty: Set[str] = set()
        for name, module in self.editor.modules.items():
            if module.params_dirty or module.compute_count == 0:
                dirty.add(name)
                dirty |= self.editor.downstream(name)
        report = ExecutionReport()
        for name in self._order():
            if name in dirty:
                module = self.editor.module(name)
                module.run_compute(self._gather_inputs(name))
                report.executed.append(name)
            else:
                report.skipped.append(name)
        return report

    def execute_from(self, module_or_name) -> ExecutionReport:
        """Force one module and its downstream cone to re-execute."""
        name = self.editor._resolve_name(module_or_name)
        targets = {name} | self.editor.downstream(name)
        report = ExecutionReport()
        for n in self._order():
            if n in targets:
                self.editor.module(n).run_compute(self._gather_inputs(n))
                report.executed.append(n)
            else:
                report.skipped.append(n)
        return report

    def output_of(self, module_or_name, port: str) -> Any:
        """Read a module's output port (viewing intermediate results)."""
        name = self.editor._resolve_name(module_or_name)
        module = self.editor.module(name)
        try:
            p = module.output_ports[port]
        except KeyError:
            raise NetworkEditError(f"{name} has no output port {port!r}") from None
        if not p.has_value:
            raise ComputeError(f"{name}.{port} has no value yet")
        return p.value
