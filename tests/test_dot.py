"""DOT export checked through the strict parser in _dotparse."""

from __future__ import annotations

import pytest

from agentbom.dot import finding_to_dot, to_dot
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.rules import Finding, audit
from agentbom.scenarios import generate
from agentbom.schema import EdgeKind, Layer, NodeKind

from _dotparse import parse_dot

HIGHLIGHT = "#b22222"


def _rt(node_id, kind, **attrs):
    return Node(node_id=node_id, kind=kind, agent_id="a1", trace_id="t1",
                timestamp="2026-03-01T09:00:00Z", attributes=attrs)


def _mixed_graph():
    g = AgentBomGraph()
    g.add_agent(AgentDescriptor("a1", "worker", ""))
    g.add_node(Node(node_id="agent.a1", kind=NodeKind.AGENT, agent_id="a1"))
    g.add_node(Node(node_id="tool.exec", kind=NodeKind.TOOL, agent_id="a1"))
    g.add_node(Node(node_id="mem.notes", kind=NodeKind.LONG_TERM_MEMORY))
    g.add_node(_rt("ctx", NodeKind.CONTEXT))
    g.add_node(_rt("act", NodeKind.ACTION, danger_flags=["x", "y"]))
    g.add_edge(Edge("s1", EdgeKind.LOADS_TOOL, "agent.a1", "tool.exec"))
    g.add_edge(Edge("b1", EdgeKind.READS_FROM, "ctx", "mem.notes"))
    g.add_edge(Edge("v1", EdgeKind.FLOWS_TO, "ctx", "act"))
    g.add_edge(Edge("k1", EdgeKind.INVOKES, "act", "tool.exec"))
    g.freeze()
    return g


def test_every_element_appears_exactly_once(graphs):
    g = graphs["memory_poisoning_tool_misuse"]
    doc = parse_dot(to_dot(g))
    assert doc["name"] == "agentbom"
    assert set(doc["nodes"]) == set(g.nodes)
    emitted = sorted((s, t, a["label"][0]) for s, t, a in doc["edges"])
    expected = sorted(
        (e.source, e.target, e.kind.value) for e in g.edges.values()
    )
    assert emitted == expected


def test_static_nodes_sit_in_the_cluster(graphs):
    g = graphs["privilege_trust_abuse"]
    doc = parse_dot(to_dot(g))
    clustered = {n for n, a in doc["nodes"].items() if a["cluster"]}
    assert clustered == {
        n for n, node in g.nodes.items() if node.layer is Layer.STATIC
    }


def test_shapes_follow_layer_and_kind():
    doc = parse_dot(to_dot(_mixed_graph()))
    assert doc["nodes"]["agent.a1"]["shape"] == "box3d"
    assert doc["nodes"]["mem.notes"]["shape"] == "cylinder"
    assert doc["nodes"]["tool.exec"]["shape"] == "box"
    assert doc["nodes"]["act"]["shape"] == "ellipse"
    assert doc["nodes"]["act"]["label"] == ["act", "ActionNode", "flags: x, y"]


def test_edge_styling_by_family():
    doc = parse_dot(to_dot(_mixed_graph()))
    by_label = {a["label"][0]: a for _, _, a in doc["edges"]}
    assert by_label["reads_from"]["style"] == "dashed"
    assert by_label["reads_from"]["color"] == "#8a6d3b"
    assert "style" not in by_label["flows_to"]
    assert by_label["loads_tool"]["color"] == "#5b7a99"


def test_propagation_edges_are_bold():
    g = AgentBomGraph()
    g.add_agent(AgentDescriptor("a1", "s", ""))
    g.add_agent(AgentDescriptor("a2", "r", ""))
    g.add_node(_rt("act", NodeKind.ACTION))
    g.add_node(Node(node_id="ext2", kind=NodeKind.EXTERNAL, agent_id="a2",
                    trace_id="t1", timestamp="2026-03-01T09:01:00Z"))
    g.add_edge(Edge("m1", EdgeKind.SENDS_TO, "act", "ext2"))
    g.freeze()
    doc = parse_dot(to_dot(g))
    _, _, attrs = doc["edges"][0]
    assert attrs["style"] == "bold"
    assert attrs["penwidth"] == "1.8"
    assert attrs["color"] == "#6a1b9a"


def test_highlighting_marks_both_element_classes():
    g = _mixed_graph()
    doc = parse_dot(to_dot(g, highlight=["act", "k1"]))
    assert doc["nodes"]["act"]["color"] == HIGHLIGHT
    assert doc["nodes"]["act"]["penwidth"] == "2.0"
    assert "color" not in doc["nodes"]["ctx"] or \
        doc["nodes"]["ctx"].get("color") != HIGHLIGHT
    invoke = [a for _, _, a in doc["edges"] if a["label"] == ["invokes"]][0]
    assert invoke["color"] == HIGHLIGHT
    flows = [a for _, _, a in doc["edges"] if a["label"] == ["flows_to"]][0]
    assert flows["color"] != HIGHLIGHT


def test_quotes_and_backslashes_survive_round_trip():
    tricky = 'obs."week 12"\\final'
    g = AgentBomGraph()
    g.add_agent(AgentDescriptor("a1", "worker", ""))
    g.add_node(_rt(tricky, NodeKind.OBSERVATION))
    g.add_node(_rt("act", NodeKind.ACTION))
    g.add_edge(Edge("e1", EdgeKind.FLOWS_TO, "act", tricky))
    g.freeze()
    doc = parse_dot(to_dot(g))
    assert tricky in doc["nodes"]
    assert doc["nodes"][tricky]["label"][0] == tricky
    assert doc["edges"][0][1] == tricky


def test_output_is_deterministic(graphs):
    sid = "ecosystem_hijacking"
    first = to_dot(graphs[sid])
    assert first == to_dot(graphs[sid])
    assert first == to_dot(generate(sid, seed=0).build())


@pytest.mark.parametrize("risk_id", ["ASI02", "ASI06"])
def test_finding_export_is_confined_to_the_evidence(graphs, risk_id):
    g = graphs["memory_poisoning_tool_misuse"]
    finding = next(f for f in audit(g).findings if f.risk_id == risk_id)
    doc = parse_dot(finding_to_dot(g, finding))
    assert doc["name"] == f"finding_{finding.risk_id}"
    # node ids and edge endpoints must all come from the finding itself
    assert set(doc["nodes"]) <= finding.element_ids()
    edge_labels = sorted(a["label"][0] for _, _, a in doc["edges"])
    expected_edges = sorted(
        g.edges[e].kind.value
        for e in finding.element_ids()
        if e in g.edges
    )
    assert edge_labels == expected_edges
    marked = {finding.entry} | {i.element_id for i in finding.evidence}
    for node_id, attrs in doc["nodes"].items():
        assert (attrs.get("color") == HIGHLIGHT) == (node_id in marked)


def test_finding_with_an_edge_entry_draws_the_edge_endpoints():
    g = _mixed_graph()
    finding = Finding(risk_id="ASI02", risk_name="", entry="k1",
                      back_paths=[], fwd_paths=[], evidence=[])
    doc = parse_dot(finding_to_dot(g, finding))
    assert set(doc["nodes"]) == {"act", "tool.exec"}
    assert [(s, t, a["label"], a["color"]) for s, t, a in doc["edges"]] == [
        ("act", "tool.exec", ["invokes"], HIGHLIGHT)]
    assert all(a.get("color") != HIGHLIGHT for a in doc["nodes"].values())
