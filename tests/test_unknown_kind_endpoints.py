"""validate() on a graph whose node has a kind that is not a NodeKind.

Such a node reports its own unknown_kind violation. Its edges are not
judged, as their endpoint kinds cannot be looked up; validate() returns the
node's violation and never raises. Unlike the unknown_kind defect of
test_pinned_violations, the node keeps its edges here.
"""

from __future__ import annotations

import pytest

from test_fuzz import _GRAPHS

from agentbom.graph import AgentBomGraph


def _edges_at(graph, node_id) -> list:
    return [e for e in graph.edges.values() if node_id in (e.source, e.target)]


@pytest.mark.parametrize("kind", ["bogus", "ToolNode", None, 7, ["ToolNode"]],
                         ids=["unknown-name", "wire-name", "null", "int", "unhashable"])
@pytest.mark.parametrize("sid", sorted(_GRAPHS))
def test_an_endpoint_of_unknown_kind_reports_only_its_node(sid, kind):
    graph = AgentBomGraph.from_json(_GRAPHS[sid].to_json())
    for node_id in sorted(graph.nodes):
        if _edges_at(graph, node_id):
            break
    graph.nodes[node_id].kind = kind
    assert _edges_at(graph, node_id)
    assert [(v.code, v.element_id, v.message) for v in graph.validate()] == [
        ("unknown_kind", node_id, f"node {node_id!r} kind is not a NodeKind"),
    ]
