"""The AVS module model.

An AVS module has three lifecycle functions (paper, section 3.3):

* ``spec``    — declares input/output data streams and widgets; called
  once when the module is instantiated,
* ``compute`` — "a standard routine that is executed each time the
  module is scheduled for execution by AVS",
* ``destroy`` — "invoked when the module is removed from a network or
  the entire network is cleared".

Subclasses override :meth:`spec` (calling the ``add_*`` declaration
helpers) and :meth:`compute`; :meth:`destroy` is overridden by modules
holding external resources — notably the Schooner-adapted modules, whose
destroy calls ``sch_i_quit``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .errors import ComputeError, PortError, WidgetError
from .ports import ANY_TYPE, InputPort, OutputPort
from .widgets import Widget

__all__ = ["AVSModule"]


def _copy(obj):
    """``copy.copy`` of a plain-attribute object, at a tenth of its price."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new


class AVSModule:
    """Base class for AVS modules."""

    #: the module's type name in the editor palette ("shaft", "duct", ...)
    module_name: str = "module"

    def __init__(self, **initial_params: Any):
        self.instance_name: Optional[str] = None  # set by the editor
        self._inputs: Dict[str, InputPort] = {}
        self._outputs: Dict[str, OutputPort] = {}
        self._widgets: Dict[str, Widget] = {}
        self.compute_count = 0
        self.destroyed = False
        self.spec()
        for name, value in initial_params.items():
            self.set_param(name, value)

    def clone(self) -> "AVSModule":
        """An independent instance in this one's state, without running
        ``spec`` again: its own widgets and output ports (what a user or
        a compute writes), the same input-port declarations."""
        new = _copy(self)
        new._inputs = dict(self._inputs)
        new._outputs = outputs = {}
        for name, port in self._outputs.items():
            outputs[name] = _copy(port)
        new._widgets = widgets = {}
        for name, widget in self._widgets.items():
            widgets[name] = _copy(widget)
        return new

    # -- declaration helpers (used inside spec) ------------------------------
    def add_input_port(
        self,
        name: str,
        port_type: str = ANY_TYPE,
        required: bool = True,
        default: Any = None,
    ) -> InputPort:
        if name in self._inputs:
            raise PortError(f"{self.module_name}: duplicate input port {name!r}")
        port = InputPort(name=name, port_type=port_type, required=required, default=default)
        self._inputs[name] = port
        return port

    def add_output_port(self, name: str, port_type: str = ANY_TYPE) -> OutputPort:
        if name in self._outputs:
            raise PortError(f"{self.module_name}: duplicate output port {name!r}")
        port = OutputPort(name=name, port_type=port_type)
        self._outputs[name] = port
        return port

    def add_widget(self, widget: Widget) -> Widget:
        if widget.name in self._widgets:
            raise WidgetError(f"{self.module_name}: duplicate widget {widget.name!r}")
        self._widgets[widget.name] = widget
        return widget

    # -- lifecycle -------------------------------------------------------------
    def spec(self) -> None:
        """Declare ports and widgets.  Subclasses override."""

    def compute(self, **inputs: Any) -> Dict[str, Any]:
        """Perform the module's computation.  Subclasses override.

        Receives connected input-port values as keyword arguments and
        returns a dict of output-port values."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Release external resources.  Subclasses override as needed;
        overriders must call ``super().destroy()``."""
        self.destroyed = True

    # -- access ------------------------------------------------------------------
    @property
    def input_ports(self) -> Dict[str, InputPort]:
        return dict(self._inputs)

    @property
    def output_ports(self) -> Dict[str, OutputPort]:
        return dict(self._outputs)

    @property
    def widgets(self) -> Dict[str, Widget]:
        return dict(self._widgets)

    def widget(self, name: str) -> Widget:
        try:
            return self._widgets[name]
        except KeyError:
            raise WidgetError(f"{self.module_name}: no widget {name!r}") from None

    def param(self, name: str) -> Any:
        return self.widget(name).value

    def set_param(self, name: str, value: Any) -> None:
        self.widget(name).set(value)

    @property
    def params_dirty(self) -> bool:
        return any(w.dirty for w in self._widgets.values())

    def mark_params_clean(self) -> None:
        for w in self._widgets.values():
            w.mark_clean()

    # -- execution (called by the scheduler) -----------------------------------------
    def run_compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Validate inputs, call compute, validate and store outputs."""
        if self.destroyed:
            raise ComputeError(f"{self.label}: module has been destroyed")
        for name, port in self._inputs.items():
            if name not in inputs:
                if port.has_default:
                    inputs[name] = port.default
                elif port.required:
                    raise ComputeError(
                        f"{self.label}: required input {name!r} is not connected"
                    )
        outputs = self.compute(**inputs)
        if outputs is None:
            outputs = {}
        if not isinstance(outputs, dict):
            raise ComputeError(
                f"{self.label}: compute must return a dict of outputs, "
                f"got {type(outputs).__name__}"
            )
        unknown = set(outputs) - set(self._outputs)
        if unknown:
            raise ComputeError(f"{self.label}: unknown output ports {sorted(unknown)}")
        for name, value in outputs.items():
            self._outputs[name].put(value)
        self.mark_params_clean()
        # counted once its outputs are stored: a module whose computes
        # all raised has never run, and the scheduler still owes it one
        self.compute_count += 1
        return outputs

    @property
    def label(self) -> str:
        return self.instance_name or self.module_name

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"<{type(self).__name__} {self.label}>"
