"""A networkx second opinion on a Network Editor.

The editor walks its own successor/predecessor dicts; tests that want
networkx to check it build the graph from what the editor shows anyone —
its modules and its ``connections`` — in the editor's order, an edge's
wires under ``"connections"``.  Editing the graph edits nothing.
"""

import networkx as nx


def digraph(editor) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(editor.modules)
    for conn in editor.connections:
        if graph.has_edge(conn.src, conn.dst):
            graph[conn.src][conn.dst]["connections"].append(conn)
        else:
            graph.add_edge(conn.src, conn.dst, connections=[conn])
    return graph
