"""The Network Editor.

"This editor allows the user to create programs by visually dragging
modules into a workspace and connecting them into a dataflow graph. ...
the Network Editor allows the user to incorporate the specific codes
needed for a simulation.  The dataflow in this case models the flow of
air through the engine." (paper, section 2.4)

The editor maintains a directed acyclic graph of module instances as
plain successor/predecessor dicts of :class:`Connection` lists, and walks
them itself: :meth:`NetworkEditor.generations` is the execution order in
layers, :meth:`NetworkEditor.downstream` a module's cone.  Connections
are type-checked port-to-port, and networks can be saved to / loaded
from plain dictionaries ("create, modify, and save programs").
Acyclicity is checked per wire, before the wire goes in, by a
reachability walk from its destination back to its source: a refused
``connect`` never touches the graph.
A checked network can be opened without being dragged again
(:meth:`NetworkEditor.paste`) and cleared in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .errors import NetworkEditError, PortError
from .module import AVSModule

__all__ = ["NetworkEditor", "Connection"]


@dataclass(frozen=True)
class Connection:
    """One wire: (src module, output port) -> (dst module, input port)."""

    src: str
    out_port: str
    dst: str
    in_port: str


@dataclass
class NetworkEditor:
    """The workspace holding modules and their dataflow wiring."""

    _modules: Dict[str, AVSModule] = field(default_factory=dict)
    # src -> dst -> the wires of that edge, in the order they went in;
    # ``_pred[dst][src]`` is the same list object as ``_succ[src][dst]``
    _succ: Dict[str, Dict[str, List[Connection]]] = field(default_factory=dict)
    _pred: Dict[str, Dict[str, List[Connection]]] = field(default_factory=dict)
    _counters: Dict[str, int] = field(default_factory=dict)
    # observers notified when a module is removed (the Schooner glue uses
    # this to fire the module's destroy -> sch_i_quit path)
    on_remove: List[Callable[[AVSModule], None]] = field(default_factory=list)

    # -- module management -------------------------------------------------------
    def add_module(self, module: AVSModule, name: Optional[str] = None) -> AVSModule:
        """Drag a module into the workspace."""
        if name is None:
            # first free <type>.<n>: a loaded network holds explicit ones
            n = self._counters.get(module.module_name, 0) + 1
            while f"{module.module_name}.{n}" in self._modules:
                n += 1
            self._counters[module.module_name] = n
            name = f"{module.module_name}.{n}"
        if name in self._modules:
            raise NetworkEditError(f"module name {name!r} already in the network")
        module.instance_name = name
        self._modules[name] = module
        self._succ[name], self._pred[name] = {}, {}
        return module

    def paste(self, other: "NetworkEditor") -> Dict[str, AVSModule]:
        """Open ``other``'s network here: an independent copy of every
        module and wire, as if dragged and connected in ``other``'s
        order (whose checks stand).  Returns the new modules by name."""
        for name in other._modules:
            if name in self._modules:
                raise NetworkEditError(f"module name {name!r} already in the network")
        new = {name: module.clone() for name, module in other._modules.items()}
        self._modules.update(new)
        for src, out in other._succ.items():
            self._succ[src] = {dst: list(wires) for dst, wires in out.items()}
        for dst, into in other._pred.items():
            self._pred[dst] = {src: self._succ[src][dst] for src in into}
        for kind, n in other._counters.items():
            self._counters[kind] = max(n, self._counters.get(kind, 0))
        return new

    def remove_module(self, module_or_name) -> None:
        """Remove a module: its wires are cut and its destroy function
        runs (which, for Schooner-adapted modules, tears down the remote
        computations of its line)."""
        name = self._resolve_name(module_or_name)
        module = self._modules.pop(name)
        for dst in self._succ.pop(name):
            del self._pred[dst][name]
        for src in self._pred.pop(name):
            del self._succ[src][name]
        for cb in self.on_remove:
            cb(module)
        module.destroy()

    def clear(self) -> None:
        """Clear the entire network: the graph goes in one step, then
        every module is destroyed in the order it was added — all of them,
        even when one's destroy raises; the first error is re-raised."""
        modules = list(self._modules.values())
        for table in (self._modules, self._succ, self._pred):
            table.clear()
        errors: List[Exception] = []
        for module in modules:
            try:
                for cb in self.on_remove:
                    cb(module)
                module.destroy()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def module(self, name: str) -> AVSModule:
        try:
            return self._modules[name]
        except KeyError:
            raise NetworkEditError(f"no module named {name!r}") from None

    def _resolve_name(self, module_or_name) -> str:
        if isinstance(module_or_name, AVSModule):
            name = module_or_name.instance_name
            if name is None or name not in self._modules:
                raise NetworkEditError(f"{module_or_name!r} is not in this network")
            return name
        if module_or_name not in self._modules:
            raise NetworkEditError(f"no module named {module_or_name!r}")
        return module_or_name

    @property
    def modules(self) -> Dict[str, AVSModule]:
        return dict(self._modules)

    # -- walks ---------------------------------------------------------------------
    def generations(self) -> List[List[str]]:
        """The modules in layers, each after every module it reads from
        (Kahn's walk).  A layer starts with the modules that have no
        upstream, in the order they were added, and grows in the order
        the wires went in; the flattened layers are the execution order
        — module order is trace order, so this order is the contract."""
        pending = {name: len(into) for name, into in self._pred.items() if into}
        layer = [name for name in self._modules if not self._pred[name]]
        layers: List[List[str]] = []
        while layer:
            layers.append(layer)
            layer = []
            for name in layers[-1]:
                for child in self._succ[name]:
                    pending[child] -= 1
                    if not pending[child]:
                        del pending[child]
                        layer.append(child)
        return layers

    def downstream(self, name: str) -> Set[str]:
        """Every module that reads, directly or not, from ``name``."""
        successors = self._succ
        seen: Set[str] = set()
        stack = [name]
        while stack:
            for nxt in successors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    # -- wiring ---------------------------------------------------------------------
    def connect(
        self, src, out_port: str, dst, in_port: str
    ) -> Connection:
        """Wire an output port to an input port, with type checking."""
        src_name = self._resolve_name(src)
        dst_name = self._resolve_name(dst)
        src_mod, dst_mod = self._modules[src_name], self._modules[dst_name]
        if out_port not in src_mod.output_ports:
            raise PortError(f"{src_name} has no output port {out_port!r}")
        if in_port not in dst_mod.input_ports:
            raise PortError(f"{dst_name} has no input port {in_port!r}")
        dst_mod.input_ports[in_port].check_accepts(src_mod.output_ports[out_port])
        # an input port takes at most one wire
        for conn in self.incoming(dst_name):
            if conn.in_port == in_port:
                raise PortError(
                    f"{dst_name}.{in_port} is already connected "
                    f"(from {conn.src}.{conn.out_port})"
                )
        # the graph is acyclic between edits, so this wire closes a cycle
        # exactly when its source is its destination or downstream of it
        if src_name == dst_name or src_name in self.downstream(dst_name):
            raise NetworkEditError(
                f"connecting {src_name}.{out_port} -> {dst_name}.{in_port} "
                f"would create a cycle"
            )
        conn = Connection(src=src_name, out_port=out_port, dst=dst_name, in_port=in_port)
        wires = self._succ[src_name].get(dst_name)
        if wires is None:
            wires = self._succ[src_name][dst_name] = self._pred[dst_name][src_name] = []
        wires.append(conn)
        return conn

    def disconnect(self, conn: Connection) -> None:
        try:
            wires = self._succ[conn.src][conn.dst]
            wires.remove(conn)
        except (KeyError, ValueError):
            raise NetworkEditError(f"connection {conn} is not in the network") from None
        if not wires:
            del self._succ[conn.src][conn.dst], self._pred[conn.dst][conn.src]

    @property
    def connections(self) -> Tuple[Connection, ...]:
        return tuple(
            conn for out in self._succ.values() for wires in out.values() for conn in wires
        )

    def incoming(self, name: str) -> Tuple[Connection, ...]:
        return tuple(conn for wires in self._pred[name].values() for conn in wires)

    # -- save / load -----------------------------------------------------------------
    def save(self) -> Dict[str, Any]:
        """Serialize the network layout (modules, parameters, wires)."""
        return {
            "modules": {
                name: {
                    "type": type(mod).__name__,
                    "module_name": mod.module_name,
                    "params": {w.name: w.value for w in mod.widgets.values()},
                }
                for name, mod in self._modules.items()
            },
            "connections": [
                {
                    "src": c.src,
                    "out_port": c.out_port,
                    "dst": c.dst,
                    "in_port": c.in_port,
                }
                for c in self.connections
            ],
        }

    @classmethod
    def load(cls, saved: Dict[str, Any], palette: Dict[str, Callable[[], AVSModule]]) -> "NetworkEditor":
        """Rebuild a saved network.  ``palette`` maps the saved ``type``
        names to module factories."""
        editor = cls()
        for name, info in saved["modules"].items():
            try:
                factory = palette[info["type"]]
            except KeyError:
                raise NetworkEditError(
                    f"saved network needs module type {info['type']!r}, "
                    f"not in the palette"
                ) from None
            module = factory()
            editor.add_module(module, name=name)
            for pname, value in info["params"].items():
                module.set_param(pname, value)
        for c in saved["connections"]:
            editor.connect(c["src"], c["out_port"], c["dst"], c["in_port"])
        return editor
