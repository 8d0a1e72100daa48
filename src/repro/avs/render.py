"""Text rendering of a dataflow network — the Figure-2 view.

AVS draws the network as boxes and wires; this renders the same
structure as text: modules in topological layers, then the wire list.
Good enough to eyeball an engine network in a terminal, and what the
Figure-2 benchmark prints.
"""

from __future__ import annotations

from typing import List

from .editor import NetworkEditor

__all__ = ["render_network"]


def render_network(editor: NetworkEditor, width: int = 72) -> str:
    """Render the module graph as layered boxes plus a wire list."""
    layers: List[List[str]] = [sorted(layer) for layer in editor.generations()]
    if not layers:
        return "(empty network)"
    lines: List[str] = []
    for depth, layer in enumerate(layers):
        row = "   ".join(f"[{name}]" for name in layer)
        indent = " " * min(2 * depth, 12)
        lines.append(indent + row)
        if depth < len(layers) - 1:
            lines.append(indent + "  |")
    lines.append("")
    lines.append("wires:")
    for conn in sorted(
        editor.connections, key=lambda c: (c.src, c.out_port, c.dst, c.in_port)
    ):
        lines.append(f"  {conn.src}.{conn.out_port} -> {conn.dst}.{conn.in_port}")
    return "\n".join(lines)
