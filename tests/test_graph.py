from __future__ import annotations

import pytest

from agentbom.errors import (
    AttributeSchemaError,
    DuplicateIdError,
    EndpointKindError,
    FrozenGraphError,
    MissingTraceIdError,
    UnknownAgentError,
)
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.schema import EdgeKind, Layer, NodeKind

_STAMP = "2026-03-01T09:00:00Z"


def _runtime(node_id, kind, agent="a1", **attrs):
    return Node(node_id=node_id, kind=kind, agent_id=agent, trace_id="t1",
                timestamp=_STAMP, attributes=attrs)


def _graph_with_agent():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    return graph


def test_add_and_look_up_elements():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(_runtime("act.1", NodeKind.ACTION))
    graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "tool.t"))

    assert graph.element("tool.t").kind is NodeKind.TOOL
    assert graph.element("e1").kind is EdgeKind.INVOKES
    assert graph.has_element("act.1")
    assert not graph.has_element("act.2")
    assert [e.edge_id for e in graph.out_edges("act.1")] == ["e1"]
    assert [e.edge_id for e in graph.in_edges("tool.t")] == ["e1"]
    assert graph.out_edges("act.1", {EdgeKind.FLOWS_TO}) == []


def test_duplicate_ids_are_rejected():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="x", kind=NodeKind.TOOL))
    with pytest.raises(DuplicateIdError):
        graph.add_node(Node(node_id="x", kind=NodeKind.SKILL))


def test_runtime_node_requires_trace_metadata():
    graph = _graph_with_agent()
    with pytest.raises(MissingTraceIdError):
        graph.add_node(Node(node_id="act.1", kind=NodeKind.ACTION, agent_id="a1"))


def test_static_node_must_not_carry_trace_id():
    graph = _graph_with_agent()
    with pytest.raises(MissingTraceIdError):
        graph.add_node(
            Node(node_id="tool.t", kind=NodeKind.TOOL, trace_id="t1")
        )


def test_runtime_node_requires_registered_agent():
    graph = _graph_with_agent()
    with pytest.raises(UnknownAgentError):
        graph.add_node(_runtime("act.1", NodeKind.ACTION, agent="ghost"))


def test_endpoint_constraints_enforced():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(_runtime("goal.1", NodeKind.GOAL))
    # a goal never invokes a tool directly
    with pytest.raises(EndpointKindError):
        graph.add_edge(Edge("e1", EdgeKind.INVOKES, "goal.1", "tool.t"))


def test_propagation_within_one_agent_needs_a_shared_object():
    graph = _graph_with_agent()
    graph.add_node(_runtime("act.1", NodeKind.ACTION))
    graph.add_node(_runtime("ext.1", NodeKind.EXTERNAL))
    with pytest.raises(EndpointKindError):
        graph.add_edge(Edge("e1", EdgeKind.SENDS_TO, "act.1", "ext.1"))

    shared = _graph_with_agent()
    shared.add_node(_runtime("act.1", NodeKind.ACTION))
    shared.add_node(
        _runtime("ext.1", NodeKind.EXTERNAL, shared_state="message_channel")
    )
    shared.add_edge(Edge("e1", EdgeKind.SENDS_TO, "act.1", "ext.1"))


def test_reference_attributes_must_resolve_at_insertion():
    graph = _graph_with_agent()
    with pytest.raises(AttributeSchemaError):
        graph.add_node(_runtime("ctx.1", NodeKind.CONTEXT, basis=["missing"]))
    graph.add_node(_runtime("ext.1", NodeKind.EXTERNAL))
    graph.add_node(_runtime("ctx.1", NodeKind.CONTEXT, basis=["ext.1"]))


def test_unregistered_attribute_key_rejected():
    graph = _graph_with_agent()
    with pytest.raises(AttributeSchemaError):
        graph.add_node(Node(node_id="t", kind=NodeKind.TOOL,
                            attributes={"favourite_color": "green"}))


def test_enum_attribute_value_checked():
    graph = _graph_with_agent()
    with pytest.raises(AttributeSchemaError):
        graph.add_node(Node(node_id="t", kind=NodeKind.TOOL,
                            attributes={"trust_level": "mostly"}))


def test_trace_id_is_a_string_attribute_of_edges_only():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(_runtime("act.1", NodeKind.ACTION))
    # on nodes trace_id is a field, so as an attribute key it is unknown
    with pytest.raises(AttributeSchemaError,
                       match="'act.2' carries unregistered key 'trace_id'"):
        graph.add_node(_runtime("act.2", NodeKind.ACTION, trace_id="t1"))
    with pytest.raises(AttributeSchemaError,
                       match="'e1' attribute 'trace_id' must be a string"):
        graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "tool.t",
                            attributes={"trace_id": 5}))
    graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "tool.t",
                        attributes={"trace_id": "t1"}))


def test_frozen_graph_rejects_appends():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="t", kind=NodeKind.TOOL))
    graph.freeze()
    assert graph.frozen
    with pytest.raises(FrozenGraphError):
        graph.add_node(Node(node_id="u", kind=NodeKind.TOOL))


def test_layer_counts():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(_runtime("act.1", NodeKind.ACTION))
    graph.add_node(Node(node_id="env.1", kind=NodeKind.ENVIRONMENT))
    counts = graph.layer_counts()
    assert counts[Layer.STATIC] == 1
    assert counts[Layer.RUNTIME] == 1
    assert counts[Layer.AUXILIARY] == 1


def _small_graph():
    graph = _graph_with_agent()
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL,
                        attributes={"tool_name": "t"}))
    graph.add_node(_runtime("act.1", NodeKind.ACTION, content="run t"))
    graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "tool.t"))
    graph.freeze()
    return graph


def test_serialization_round_trip():
    graph = _small_graph()
    clone = AgentBomGraph.from_json(graph.to_json())
    assert clone.to_dict() == graph.to_dict()
    assert clone.digest() == graph.digest()
    assert clone.validate() == []
    assert clone.frozen


def test_digest_is_content_addressed():
    assert _small_graph().digest() == _small_graph().digest()
    other = _graph_with_agent()
    other.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    assert other.digest() != _small_graph().digest()


def test_validate_reports_problems_in_permissively_loaded_graphs():
    doc = _small_graph().to_dict()
    doc["nodes"][0]["attributes"]["made_up"] = "x"  # act.1 after sorting
    loaded = AgentBomGraph.from_dict(doc)
    codes = {v.code for v in loaded.validate()}
    assert "attribute_schema" in codes


def test_validate_catches_dangling_edges():
    doc = _small_graph().to_dict()
    doc["nodes"] = [n for n in doc["nodes"] if n["node_id"] != "tool.t"]
    loaded = AgentBomGraph.from_dict(doc)
    codes = {v.code for v in loaded.validate()}
    assert "dangling_endpoint" in codes
