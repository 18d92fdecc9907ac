"""Render graphs and audit findings as Graphviz DOT text.

The output is plain deterministic text: nodes and edges are emitted in
sorted id order, so the same graph always serializes to the same bytes.
Static capability nodes are boxed and clustered, runtime states are
ellipses, and propagation edges are drawn bold so cross-agent hops stand
out in the rendered figure.
"""

from __future__ import annotations

from .graph import AgentBomGraph
from .schema import EdgeFamily, Layer, NodeKind

__all__ = ["to_dot", "finding_to_dot"]

_LAYER_SHAPE = {
    Layer.STATIC: ("box", "#dce9f5"),
    Layer.RUNTIME: ("ellipse", "#f7f3e2"),
    Layer.AUXILIARY: ("note", "#ececec"),
}
# a couple of kinds read better with their own silhouette
_KIND_SHAPE = {
    NodeKind.AGENT: "box3d",
    NodeKind.LONG_TERM_MEMORY: "cylinder",
}
_FAMILY_COLOR = {
    EdgeFamily.STRUCTURAL: "#5b7a99",
    EdgeFamily.EVOLUTION: "#3a3a3a",
    EdgeFamily.BINDING: "#8a6d3b",
    EdgeFamily.PROPAGATION: "#6a1b9a",
}
_HIGHLIGHT = "#b22222"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(parts) -> str:
    safe = [p.replace("\\", "\\\\").replace('"', '\\"') for p in parts]
    return '"' + "\\n".join(safe) + '"'


def _node_line(node, marked: bool) -> str:
    shape, fill = _LAYER_SHAPE[node.layer]
    shape = _KIND_SHAPE.get(node.kind, shape)
    parts = [node.node_id, node.kind.value]
    flags = node.attributes.get("danger_flags")
    if flags:
        parts.append("flags: " + ", ".join(flags))
    extra = f', color="{_HIGHLIGHT}", penwidth=2.0' if marked else ""
    return (
        f"  {_quote(node.node_id)} [label={_label(parts)}, "
        f'shape={shape}, fillcolor="{fill}"{extra}];'
    )


def _edge_line(edge, marked: bool) -> str:
    family = edge.kind.family
    color = _HIGHLIGHT if marked else _FAMILY_COLOR[family]
    styles = []
    if family is EdgeFamily.BINDING:
        styles.append("style=dashed")
    if family is EdgeFamily.PROPAGATION:
        styles.append("style=bold")
    if marked or family is EdgeFamily.PROPAGATION:
        styles.append("penwidth=1.8")
    suffix = (", " + ", ".join(styles)) if styles else ""
    return (
        f"  {_quote(edge.source)} -> {_quote(edge.target)} "
        f'[label={_label([edge.kind.value])}, color="{color}"{suffix}];'
    )


def _render(graph: AgentBomGraph, node_ids, edge_ids, marked,
            name: str) -> str:
    """Draw the given nodes and edges of graph; ids in marked are red."""
    lines = [
        f"digraph {name} {{",
        "  graph [rankdir=LR, fontname=\"Helvetica\"];",
        "  node [fontname=\"Helvetica\", fontsize=10, style=filled];",
        "  edge [fontname=\"Helvetica\", fontsize=9];",
    ]

    static_ids = sorted(
        n for n in node_ids if graph.nodes[n].layer is Layer.STATIC
    )
    other_ids = sorted(set(node_ids) - set(static_ids))
    if static_ids:
        lines.append("  subgraph cluster_static {")
        lines.append('    label="static capabilities";')
        lines.append('    style=dashed;')
        lines.append('    color="#9fb4c7";')
        for node_id in static_ids:
            lines.append("  " + _node_line(graph.nodes[node_id],
                                           node_id in marked))
        lines.append("  }")
    for node_id in other_ids:
        lines.append(_node_line(graph.nodes[node_id], node_id in marked))
    for edge_id in sorted(edge_ids):
        lines.append(_edge_line(graph.edges[edge_id], edge_id in marked))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(graph: AgentBomGraph, highlight=(), name: str = "agentbom") -> str:
    """Serialize the whole graph; ids in ``highlight`` are drawn in red."""
    return _render(graph, graph.nodes, graph.edges, set(highlight), name)


def finding_to_dot(graph: AgentBomGraph, finding) -> str:
    """Render just the finding's evidence neighborhood, highlighted.

    The view keeps the finding's elements (its entry plus every node and
    edge on the reported backward and forward paths) and the endpoints of
    each of those edges, drawn from the graph the finding came from.
    """
    element_ids = finding.element_ids()
    edge_ids = {e for e in element_ids if e in graph.edges}
    node_ids = element_ids - edge_ids
    for edge_id in edge_ids:
        edge = graph.edges[edge_id]
        node_ids.update((edge.source, edge.target))
    marked = {finding.entry} | {item.element_id for item in finding.evidence}
    return _render(graph, node_ids, edge_ids, marked,
                   f"finding_{finding.risk_id}")
