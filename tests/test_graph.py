from __future__ import annotations

import copy
import gc
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from agentbom.errors import (
    AttributeSchemaError,
    DanglingEndpointError,
    DuplicateIdError,
    EndpointKindError,
    FrozenGraphError,
    GraphDocumentError,
    GraphError,
    GraphValidationError,
    MissingTraceIdError,
    UnknownAgentError,
    UnknownKindError,
)
from _oracles import random_graph
from agentbom.graph import (_STAMPS, _STAMPS_BOUND, AgentBomGraph, AgentDescriptor, Edge, Node,
                            Violation, _Loader, instant)
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
    # an unregistered key, attributes that are not a map, and a key that is
    # not a string: insertion raises the first fault, and validate() reports
    # them all once the attributes are set after insertion
    for attributes, messages in [
        ({"favourite_color": "green"}, ["{} carries unregistered key 'favourite_color'"]),
        ([("tool_name", "t")], ["{} attributes must be an object, got [('tool_name', 't')]"]),
        ({5: "t", "zz": 1}, ["{} carries unregistered key 5",
                             "{} carries unregistered key 'zz'"]),
    ]:
        graph = _graph_with_agent()
        graph.add_node(_runtime("act.1", NodeKind.ACTION))
        with pytest.raises(AttributeSchemaError) as raised:
            graph.add_node(Node(node_id="t", kind=NodeKind.TOOL, attributes=attributes))
        assert str(raised.value) == messages[0].format("'t'")
        graph.add_node(Node(node_id="t", kind=NodeKind.TOOL))
        with pytest.raises(AttributeSchemaError) as raised:
            graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "t", attributes=attributes))
        assert str(raised.value) == messages[0].format("'e1'")
        graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "t"))
        graph.nodes["t"].attributes = attributes
        graph.edges["e1"].attributes = attributes
        assert [(v.element_id, v.message) for v in graph.validate()] == [
            (element, message.format(repr(element)))
            for element in ("t", "e1") for message in messages
        ]
        assert {v.code for v in graph.validate()} == {"attribute_schema"}
    # such an endpoint of a propagation edge within one agent carries no
    # shared-object marker
    graph = _graph_with_agent()
    graph.add_node(_runtime("out.1", NodeKind.OUTPUT, shared_state="channel"))
    graph.add_node(_runtime("ctx.1", NodeKind.CONTEXT))
    graph.add_edge(Edge("e.sends", EdgeKind.SENDS_TO, "out.1", "ctx.1"))
    graph.nodes["out.1"].attributes = 5
    assert [(v.code, v.element_id) for v in graph.validate()] == [
        ("attribute_schema", "out.1"), ("cross_agent", "e.sends")]


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


def test_null_agent_role_and_boundary_load_as_absent():
    doc = {"agents": [{"agent_id": "a", "role": None, "policy_boundary": None}],
           "nodes": [], "edges": []}
    graph = AgentBomGraph.from_dict(doc)
    assert graph.agents["a"] == AgentDescriptor("a", "", "")
    assert json.loads(graph.to_json())["agents"] == [
        {"agent_id": "a", "policy_boundary": "", "role": ""}
    ]


def test_duplicate_agent_ids_in_a_document_are_rejected():
    doc = {"agents": [{"agent_id": "a", "role": "one"}, {"agent_id": "a", "role": "two"}],
           "nodes": [], "edges": []}
    with pytest.raises(DuplicateIdError, match="agent id 'a' appears twice"):
        AgentBomGraph.from_dict(doc)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("text, error, converted", [
    (None, None, True),
    # a document whose fields are wrong never reaches the element loader
    ('{"agents": [], "nodes": []}', GraphDocumentError, False),
    ('{"agents": [], "nodes": [{}], "edges": []}', GraphDocumentError, True),
    ('{"agents": [', GraphDocumentError, False),  # not a bare JSONDecodeError
], ids=["loads", "bad-document", "bad-element", "bad-json"])
def test_from_json_restores_the_collector_state(monkeypatch, enabled, text, error, converted):
    seen = []
    load = _Loader.nodes

    def recording(loader, docs):
        seen.append(gc.isenabled())
        return load(loader, docs)

    # both of from_json's paths convert nodes here, the sliced one per slice
    monkeypatch.setattr(_Loader, "nodes", recording)
    text = _small_graph().to_json() if text is None else text
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            AgentBomGraph.from_json(text)
        else:
            with pytest.raises(error):
                AgentBomGraph.from_json(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the collector is paused while the document is turned into a graph
    assert seen == ([False] if converted else [])


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


# ---------------------------------------------------------------------------
# exact violations: every code and message, in validate()'s order, and the
# error that insertion raises for the same fault
# ---------------------------------------------------------------------------

_PIN_DOC = {
    "agents": [{"agent_id": "a1", "role": "worker"}, {"agent_id": "a2"}],
    "nodes": [
        {"node_id": "agent.a1", "kind": "AgentNode", "attributes": {"role": "worker"}},
        {"node_id": "tool.t", "kind": "ToolNode",
         "attributes": {"tool_name": "t", "permission_scope": ["fs"]}},
        {"node_id": "ext.1", "kind": "ExternalNode", "agent_id": "a1",
         "trace_id": "t1", "timestamp": _STAMP,
         "attributes": {"content": "hi", "source": "https://example.org/x",
                        "trust_level": "untrusted"}},
        {"node_id": "ctx.1", "kind": "ContextNode", "agent_id": "a1",
         "trace_id": "t1", "timestamp": _STAMP, "attributes": {"basis": ["ext.1"]}},
        {"node_id": "act.1", "kind": "ActionNode", "agent_id": "a1",
         "trace_id": "t1", "timestamp": _STAMP,
         "attributes": {"parameters": {"path": "/tmp"}, "tool_name": "t",
                        "parameter_source": ["ctx.1", "act.1"]}},
        {"node_id": "ext.2", "kind": "ExternalNode", "agent_id": "a2",
         "trace_id": "t2", "timestamp": _STAMP, "attributes": {"source": "act.1"}},
    ],
    "edges": [
        {"edge_id": "e.flows", "kind": "flows_to", "source": "ext.1",
         "target": "ctx.1", "timestamp": _STAMP, "attributes": {}},
        {"edge_id": "e.invokes", "kind": "invokes", "source": "act.1",
         "target": "tool.t", "attributes": {"trace_id": "t1"}},
        {"edge_id": "e.sends", "kind": "sends_to", "source": "act.1",
         "target": "ext.2", "attributes": {"propagation_status": "delivered"}},
    ],
}


def _element(doc, element_id):
    return next(e for e in doc["nodes"] + doc["edges"]
                if e.get("node_id", e.get("edge_id")) == element_id)


def _set(element_id, **fields):
    def edit(doc):
        _element(doc, element_id).update(fields)
    return edit


def _drop(element_id, *names):
    def edit(doc):
        for name in names:
            del _element(doc, element_id)[name]
    return edit


def _attrs(element_id, **attributes):
    def edit(doc):
        _element(doc, element_id)["attributes"].update(attributes)
    return edit


def _append(section, element):
    def edit(doc):
        doc[section].append(element)
    return edit


def _both(*edits):
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


def _insert_all(doc):
    graph = AgentBomGraph()
    for agent_doc in doc["agents"]:
        graph.add_agent(AgentDescriptor.from_dict(agent_doc))
    for node_doc in doc["nodes"]:
        graph.add_node(Node.from_dict(node_doc))
    for edge_doc in doc["edges"]:
        graph.add_edge(Edge.from_dict(edge_doc))
    return graph


_TRUST = "must be one of ['trusted', 'untrusted', 'unknown']"

# id, edit of _PIN_DOC, validate() as (code, element id, message), and the
# error type and message of inserting the edited document in order
_PIN_CASES = [
    ("empty-node-id", _append("nodes", {"node_id": "", "kind": "ToolNode"}),
     [("empty_id", "", "a node id must not be empty")],
     GraphError, "a node id must not be empty"),
    ("empty-edge-id", _append("edges", {"edge_id": "", "kind": "invokes",
                                        "source": "act.1", "target": "tool.t"}),
     [("empty_id", "", "an edge id must not be empty")],
     GraphError, "an edge id must not be empty"),
    ("runtime-without-trace-id", _drop("ctx.1", "trace_id"),
     [("layer_metadata", "ctx.1", "runtime node 'ctx.1' requires trace_id and timestamp")],
     MissingTraceIdError, "runtime node 'ctx.1' requires trace_id and timestamp"),
    ("runtime-without-agent", _drop("ctx.1", "agent_id"),
     [("layer_metadata", "ctx.1", "runtime node 'ctx.1' requires agent_id")],
     MissingTraceIdError, "runtime node 'ctx.1' requires agent_id"),
    ("static-with-trace-id", _set("tool.t", trace_id="t1"),
     [("layer_metadata", "tool.t", "static node 'tool.t' must not carry trace_id")],
     MissingTraceIdError, "static node 'tool.t' must not carry trace_id"),
    ("unregistered-agent", _set("ctx.1", agent_id="ghost"),
     [("unknown_agent", "ctx.1", "runtime node 'ctx.1' names unregistered agent 'ghost'")],
     UnknownAgentError, "runtime node 'ctx.1' names unregistered agent 'ghost'"),
    ("node-timestamp", _set("ctx.1", timestamp="yesterday"),
     [("attribute_schema", "ctx.1", "node 'ctx.1' timestamp 'yesterday' is not ISO-8601")],
     AttributeSchemaError, "node 'ctx.1' timestamp 'yesterday' is not ISO-8601"),
    ("edge-timestamp", _set("e.flows", timestamp="soon"),
     [("attribute_schema", "e.flows", "edge 'e.flows' timestamp 'soon' is not ISO-8601")],
     AttributeSchemaError, "edge 'e.flows' timestamp 'soon' is not ISO-8601"),
    ("unregistered-key", _attrs("tool.t", favourite_color="green"),
     [("attribute_schema", "tool.t", "'tool.t' carries unregistered key 'favourite_color'")],
     AttributeSchemaError, "'tool.t' carries unregistered key 'favourite_color'"),
    ("key-of-another-kind", _attrs("tool.t", basis=[]),
     [("attribute_schema", "tool.t", "'tool.t' carries unregistered key 'basis'")],
     AttributeSchemaError, "'tool.t' carries unregistered key 'basis'"),
    ("node-key-on-an-edge", _attrs("e.flows", basis=["ext.9"]),
     [("attribute_schema", "e.flows", "'e.flows' carries unregistered key 'basis'")],
     AttributeSchemaError, "'e.flows' carries unregistered key 'basis'"),
    ("text-value", _attrs("ext.1", content=5),
     [("attribute_schema", "ext.1", "'ext.1' attribute 'content' must be a string")],
     AttributeSchemaError, "'ext.1' attribute 'content' must be a string"),
    ("enum-value", _attrs("ext.1", trust_level="mostly"),
     [("attribute_schema", "ext.1", f"'ext.1' attribute 'trust_level' {_TRUST}")],
     AttributeSchemaError, f"'ext.1' attribute 'trust_level' {_TRUST}"),
    ("enum-value-not-a-string", _attrs("ext.1", trust_level=["trusted"]),
     [("attribute_schema", "ext.1", f"'ext.1' attribute 'trust_level' {_TRUST}")],
     AttributeSchemaError, f"'ext.1' attribute 'trust_level' {_TRUST}"),
    ("edge-enum-value", _attrs("e.sends", propagation_status="lost"),
     [("attribute_schema", "e.sends", "'e.sends' attribute 'propagation_status' must be "
       "one of ['delivered', 'tampered', 'dropped']")],
     AttributeSchemaError, "'e.sends' attribute 'propagation_status' must be "
                           "one of ['delivered', 'tampered', 'dropped']"),
    ("string-list-value", _attrs("tool.t", permission_scope="fs"),
     [("attribute_schema", "tool.t",
       "'tool.t' attribute 'permission_scope' must be a list of strings")],
     AttributeSchemaError, "'tool.t' attribute 'permission_scope' must be a list of strings"),
    ("string-list-entry", _attrs("tool.t", permission_scope=["fs", 1]),
     [("attribute_schema", "tool.t",
       "'tool.t' attribute 'permission_scope' must be a list of strings")],
     AttributeSchemaError, "'tool.t' attribute 'permission_scope' must be a list of strings"),
    ("key-value-map-value", _attrs("act.1", parameters=["path"]),
     [("attribute_schema", "act.1",
       "'act.1' attribute 'parameters' must be a string-to-string map")],
     AttributeSchemaError, "'act.1' attribute 'parameters' must be a string-to-string map"),
    ("key-value-map-entry", _attrs("act.1", parameters={"path": 1}),
     [("attribute_schema", "act.1",
       "'act.1' attribute 'parameters' must be a string-to-string map")],
     AttributeSchemaError, "'act.1' attribute 'parameters' must be a string-to-string map"),
    ("edge-trace-id-value", _attrs("e.invokes", trace_id=5),
     [("attribute_schema", "e.invokes", "'e.invokes' attribute 'trace_id' must be a string")],
     AttributeSchemaError, "'e.invokes' attribute 'trace_id' must be a string"),
    ("dangling-source", _set("e.invokes", source="act.9"),
     [("dangling_endpoint", "e.invokes", "edge 'e.invokes' endpoint 'act.9' is not in the graph")],
     DanglingEndpointError, "edge 'e.invokes' endpoint 'act.9' is not in the graph"),
    ("dangling-both", _set("e.invokes", source="act.9", target="tool.9"),
     [("dangling_endpoint", "e.invokes", "edge 'e.invokes' endpoint 'act.9' is not in the graph")],
     DanglingEndpointError, "edge 'e.invokes' endpoint 'act.9' is not in the graph"),
    ("dangling-target", _set("e.invokes", target="tool.9"),
     [("dangling_endpoint", "e.invokes", "edge 'e.invokes' endpoint 'tool.9' is not in the graph")],
     DanglingEndpointError, "edge 'e.invokes' endpoint 'tool.9' is not in the graph"),
    ("endpoint-kind", _set("e.invokes", source="ctx.1"),
     [("endpoint_kind", "e.invokes", "edge kind invokes does not permit ContextNode -> ToolNode")],
     EndpointKindError, "edge kind invokes does not permit ContextNode -> ToolNode"),
    ("cross-agent", _set("ext.2", agent_id="a1"),
     [("cross_agent", "e.sends", "propagation edge 'e.sends' joins two elements of agent "
                                 "'a1' with no shared-object marker")],
     EndpointKindError, "propagation edge 'e.sends' joins two elements of agent 'a1' "
                        "with no shared-object marker"),
    ("cross-agent-shared", _both(_set("ext.2", agent_id="a1"),
                                 _attrs("ext.2", shared_state="channel")),
     [], None, None),
    ("unresolved-basis", _attrs("ctx.1", basis=["ext.1", "ext.9"]),
     [("unresolved_reference", "ctx.1", "'ctx.1' basis entry 'ext.9' does not resolve")],
     AttributeSchemaError, "'ctx.1' basis entry 'ext.9' does not resolve"),
    ("unresolved-parameter-source", _attrs("act.1", parameter_source=["ctx.9"]),
     [("unresolved_reference", "act.1",
       "'act.1' parameter_source entry 'ctx.9' does not resolve")],
     AttributeSchemaError, "'act.1' parameter_source entry 'ctx.9' does not resolve"),
    ("unresolved-source", _attrs("ext.2", source="ext.9"),
     [("unresolved_reference", "ext.2", "'ext.2' source 'ext.9' does not resolve")],
     AttributeSchemaError, "'ext.2' source 'ext.9' does not resolve"),
    ("self-references-resolve", _both(_attrs("ctx.1", basis=["ctx.1"]),
                                      _attrs("ext.2", source="ext.2")),
     [], None, None),
    ("reference-list-of-the-wrong-type", _attrs("ctx.1", basis=[5, "ext.9"]),
     [("attribute_schema", "ctx.1", "'ctx.1' attribute 'basis' must be a list of strings"),
      ("unresolved_reference", "ctx.1", "'ctx.1' basis entry 'ext.9' does not resolve")],
     AttributeSchemaError, "'ctx.1' attribute 'basis' must be a list of strings"),
    ("reference-on-a-kind-without-the-key", _attrs("tool.t", basis=["ext.9"], source="x"),
     [("attribute_schema", "tool.t", "'tool.t' carries unregistered key 'basis'"),
      ("unresolved_reference", "tool.t", "'tool.t' basis entry 'ext.9' does not resolve"),
      ("unresolved_reference", "tool.t", "'tool.t' source 'x' does not resolve")],
     AttributeSchemaError, "'tool.t' carries unregistered key 'basis'"),
    ("two-bad-keys-sorted", _attrs("ext.1", zeta=1, content=5),
     [("attribute_schema", "ext.1", "'ext.1' attribute 'content' must be a string"),
      ("attribute_schema", "ext.1", "'ext.1' carries unregistered key 'zeta'")],
     AttributeSchemaError, "'ext.1' attribute 'content' must be a string"),
    ("every-node-check-in-order",
     _both(_drop("ctx.1", "trace_id"), _set("ctx.1", agent_id="ghost", timestamp="x"),
           _attrs("ctx.1", basis=["ext.9"], aa=1)),
     [("layer_metadata", "ctx.1", "runtime node 'ctx.1' requires trace_id and timestamp"),
      ("unknown_agent", "ctx.1", "runtime node 'ctx.1' names unregistered agent 'ghost'"),
      ("attribute_schema", "ctx.1", "node 'ctx.1' timestamp 'x' is not ISO-8601"),
      ("attribute_schema", "ctx.1", "'ctx.1' carries unregistered key 'aa'"),
      ("unresolved_reference", "ctx.1", "'ctx.1' basis entry 'ext.9' does not resolve")],
     MissingTraceIdError, "runtime node 'ctx.1' requires trace_id and timestamp"),
    ("every-edge-check-in-order",
     _both(_set("ext.2", agent_id="a1"), _set("e.sends", timestamp="x"),
           _attrs("e.sends", propagation_status="lost", aa=1)),
     [("cross_agent", "e.sends", "propagation edge 'e.sends' joins two elements of agent "
                                 "'a1' with no shared-object marker"),
      ("attribute_schema", "e.sends", "'e.sends' carries unregistered key 'aa'"),
      ("attribute_schema", "e.sends", "'e.sends' attribute 'propagation_status' must be "
                                      "one of ['delivered', 'tampered', 'dropped']"),
      ("attribute_schema", "e.sends", "edge 'e.sends' timestamp 'x' is not ISO-8601")],
     EndpointKindError, "propagation edge 'e.sends' joins two elements of agent 'a1' "
                        "with no shared-object marker"),
    ("endpoint-kind-hides-the-rest",
     _both(_set("e.invokes", source="ctx.1", timestamp="x"), _attrs("e.invokes", aa=1)),
     [("endpoint_kind", "e.invokes", "edge kind invokes does not permit ContextNode -> ToolNode")],
     EndpointKindError, "edge kind invokes does not permit ContextNode -> ToolNode"),
    ("nodes-then-edges-each-by-id",
     _both(_attrs("tool.t", zz=1), _attrs("ext.1", zz=1), _attrs("e.flows", zz=1),
           _attrs("e.sends", zz=1)),
     [("attribute_schema", "ext.1", "'ext.1' carries unregistered key 'zz'"),
      ("attribute_schema", "tool.t", "'tool.t' carries unregistered key 'zz'"),
      ("attribute_schema", "e.flows", "'e.flows' carries unregistered key 'zz'"),
      ("attribute_schema", "e.sends", "'e.sends' carries unregistered key 'zz'")],
     AttributeSchemaError, "'tool.t' carries unregistered key 'zz'"),
]


@pytest.mark.parametrize("edit, violations, error, message",
                         [case[1:] for case in _PIN_CASES],
                         ids=[case[0] for case in _PIN_CASES])
def test_violations_and_insertion_errors_are_pinned(edit, violations, error, message):
    assert AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC)).validate() == []
    doc = copy.deepcopy(_PIN_DOC)
    edit(doc)
    got = AgentBomGraph.from_dict(copy.deepcopy(doc)).validate()
    assert [(v.code, v.element_id, v.message) for v in got] == violations
    if error is None:
        _insert_all(doc)
        return
    with pytest.raises(GraphError) as raised:
        _insert_all(doc)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_duplicate_and_unknown_kind_errors_are_pinned():
    graph = _insert_all(_PIN_DOC)
    cases = [
        (lambda g: g.add_node(Node(node_id="tool.t", kind=NodeKind.SKILL)),
         DuplicateIdError, "element id 'tool.t' already in use"),
        (lambda g: g.add_edge(Edge("tool.t", EdgeKind.INVOKES, "act.1", "tool.t")),
         DuplicateIdError, "element id 'tool.t' already in use"),
        (lambda g: g.add_node(Node(node_id="n", kind="ToolNode")),
         UnknownKindError, "node 'n' kind is not a NodeKind"),
        (lambda g: g.add_edge(Edge("e", "invokes", "act.1", "tool.t")),
         UnknownKindError, "edge 'e' kind is not an EdgeKind"),
    ]
    for insert, error, message in cases:
        with pytest.raises(GraphError) as raised:
            insert(graph)
        assert type(raised.value) is error
        assert str(raised.value) == message
    documents = [
        (_append("nodes", {"node_id": "tool.t", "kind": "SkillNode"}),
         DuplicateIdError, "node id 'tool.t' appears twice"),
        (_append("edges", {"edge_id": "tool.t", "kind": "invokes",
                           "source": "act.1", "target": "tool.t"}),
         DuplicateIdError, "edge id 'tool.t' appears twice"),
        (_append("nodes", {"node_id": "n", "kind": "GadgetNode"}),
         UnknownKindError, "unknown node kind 'GadgetNode'"),
        (_append("edges", {"edge_id": "e", "kind": "teleports_to",
                           "source": "act.1", "target": "tool.t"}),
         UnknownKindError, "unknown edge kind 'teleports_to'"),
    ]
    for edit, error, message in documents:
        doc = copy.deepcopy(_PIN_DOC)
        edit(doc)
        with pytest.raises(GraphError) as raised:
            AgentBomGraph.from_dict(doc)
        assert type(raised.value) is error
        assert str(raised.value) == message


@pytest.mark.parametrize("timestamp", [5, 1.5, [_STAMP], {"at": _STAMP}])
def test_a_timestamp_that_is_not_a_string_is_a_schema_problem(timestamp):
    graph = _insert_all(_PIN_DOC)
    with pytest.raises(AttributeSchemaError) as raised:
        graph.add_node(Node("x", NodeKind.EXTERNAL, "a1", "t1", timestamp))
    assert str(raised.value) == f"node 'x' timestamp {timestamp!r} is not ISO-8601"
    with pytest.raises(AttributeSchemaError) as raised:
        graph.add_edge(Edge("e.x", EdgeKind.FLOWS_TO, "ext.1", "ctx.1", timestamp))
    assert str(raised.value) == f"edge 'e.x' timestamp {timestamp!r} is not ISO-8601"
    assert not graph.has_element("x") and not graph.has_element("e.x")
    # a document cannot carry one, so validate() meets it on a built graph
    loaded = AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC))
    loaded.nodes["ctx.1"].timestamp = timestamp
    loaded.edges["e.flows"].timestamp = timestamp
    assert [(v.code, v.element_id, v.message) for v in loaded.validate()] == [
        ("attribute_schema", "ctx.1", f"node 'ctx.1' timestamp {timestamp!r} is not ISO-8601"),
        ("attribute_schema", "e.flows",
         f"edge 'e.flows' timestamp {timestamp!r} is not ISO-8601"),
    ]


class _Stamp(str):
    """A string subclass: a timestamp judged as the string it is."""


@pytest.mark.parametrize("stamp", ["yesterday", "2026-02-30T09:00:00Z", _STAMP + "x",
                                   _Stamp("tomorrow"), 7, [_STAMP], ["x"]],
                         ids=repr)
def test_a_failing_stamp_is_reported_on_every_element_that_carries_it(stamp):
    """Each element with a rejected stamp gets its own violation, however
    many elements carry it and whatever stamps were accepted before."""
    graph = _insert_all(_PIN_DOC)
    for number in range(3):
        graph.add_node(Node(f"ok{number}", NodeKind.EXTERNAL, "a1", "t1", _STAMP))
        with pytest.raises(AttributeSchemaError) as raised:
            graph.add_node(Node(f"x{number}", NodeKind.EXTERNAL, "a1", "t1", stamp))
        assert str(raised.value) == f"node 'x{number}' timestamp {stamp!r} is not ISO-8601"
        with pytest.raises(AttributeSchemaError) as raised:
            graph.add_edge(Edge(f"e.x{number}", EdgeKind.FLOWS_TO, "ext.1", "ctx.1", stamp))
        assert str(raised.value) == f"edge 'e.x{number}' timestamp {stamp!r} is not ISO-8601"
        assert not graph.has_element(f"x{number}") and not graph.has_element(f"e.x{number}")
    assert graph.validate() == []
    loaded = AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC))
    carriers = [loaded.nodes["ctx.1"], loaded.nodes["ext.2"], loaded.edges["e.flows"],
                loaded.edges["e.invokes"]]
    for element in carriers:
        element.timestamp = stamp
    expected = [("attribute_schema", element_id,
                 f"{what} {element_id!r} timestamp {stamp!r} is not ISO-8601")
                for what, element_id in (("node", "ctx.1"), ("node", "ext.2"),
                                         ("edge", "e.flows"), ("edge", "e.invokes"))]
    for _ in range(2):
        assert [(v.code, v.element_id, v.message) for v in loaded.validate()] == expected
    for element in carriers:
        element.timestamp = _STAMP
    assert loaded.validate() == []


def test_instant_counts_microseconds_and_keeps_only_strings():
    """instant() reads a stamp as whole microseconds since the epoch, in any
    offset; an unreadable text raises ValueError and is not kept, and the
    element checks never hand it a value that is not a string."""
    assert instant("1970-01-01T00:00:00Z") == 0
    assert instant("2026-03-01T09:00:00.000001Z") == 1772355600000001
    assert instant("2026-03-01T10:00:00+01:00") == instant(_STAMP) == instant(_STAMP[:-1])
    assert instant("1969-12-31T23:59:59.999999Z") == -1
    _STAMPS.clear()
    for text in ("soon", "2026-02-30T09:00:00Z", ""):
        with pytest.raises(ValueError):
            instant(text)
    assert len(_STAMPS) == 0
    loaded = AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC))
    assert loaded.validate() == [] and len(_STAMPS) == 1  # _STAMP
    for stamp in (7, 1.5, [_STAMP], {"at": _STAMP}):
        loaded.nodes["ctx.1"].timestamp = stamp
        loaded.edges["e.flows"].timestamp = stamp
        assert len(loaded.validate()) == 2
    assert len(_STAMPS) == 1


def test_the_stamp_memo_empties_at_its_bound():
    """instant()'s memo keeps every text it reads until it holds
    _STAMPS_BOUND of them; the next new text empties it, and every answer,
    before and after, is the text's own."""
    base = instant(_STAMP)
    texts = [(datetime(2026, 3, 1, 9, tzinfo=timezone.utc) + timedelta(seconds=s)).isoformat()
             for s in range(_STAMPS_BOUND + 2)]
    _STAMPS.clear()
    for second, text in enumerate(texts[:_STAMPS_BOUND]):
        assert instant(text) == base + second * 10**6
    assert len(_STAMPS) == _STAMPS_BOUND
    assert instant(texts[0]) == base and len(_STAMPS) == _STAMPS_BOUND  # kept: nothing added
    assert instant(texts[-2]) == base + _STAMPS_BOUND * 10**6
    assert list(_STAMPS) == [texts[-2]]
    for second in (1, _STAMPS_BOUND + 1, 0):
        assert instant(texts[second]) == base + second * 10**6
    assert len(_STAMPS) == 4


# ---------------------------------------------------------------------------
# fields that must be strings: insertion raises what a document would, and
# validate() reports the same fault once the field is set after insertion
# ---------------------------------------------------------------------------

def _field(section, element_id, /, **fields):
    def edit(graph):
        for name, value in fields.items():
            setattr(getattr(graph, section)[element_id], name, value)
    return edit


_MISTYPED_CASES = [
    ("node-id-a-number",
     lambda g: g.add_node(Node(5, NodeKind.TOOL)),
     _field("nodes", "tool.t", node_id=5),
     [("field_type", 5, "node field 'node_id' must be a string, got 5")]),
    ("node-id-a-list",
     lambda g: g.add_node(Node(["x"], NodeKind.TOOL)),
     _field("nodes", "tool.t", node_id=["x"]),
     [("field_type", ["x"], "node field 'node_id' must be a string, got ['x']")]),
    ("runtime-trace-id-a-number",
     lambda g: g.add_node(Node("x", NodeKind.EXTERNAL, "a1", 5, _STAMP)),
     _field("nodes", "ctx.1", trace_id=5),
     [("field_type", "ctx.1", "node field 'trace_id' must be a string, got 5")]),
    ("runtime-agent-id-a-list",
     lambda g: g.add_node(Node("x", NodeKind.EXTERNAL, ["a1"], "t1", _STAMP)),
     _field("nodes", "ctx.1", agent_id=["a1"]),
     [("field_type", "ctx.1", "node field 'agent_id' must be a string, got ['a1']")]),
    ("static-agent-id-a-number",
     lambda g: g.add_node(Node("tool.x", NodeKind.TOOL, agent_id=7)),
     _field("nodes", "tool.t", agent_id=7),
     [("field_type", "tool.t", "node field 'agent_id' must be a string, got 7")]),
    ("edge-id-a-number",
     lambda g: g.add_edge(Edge(5, EdgeKind.FLOWS_TO, "ext.1", "ctx.1")),
     _field("edges", "e.flows", edge_id=5),
     [("field_type", 5, "edge field 'edge_id' must be a string, got 5")]),
    ("edge-source-a-number",
     lambda g: g.add_edge(Edge("e.x", EdgeKind.FLOWS_TO, 5, "ctx.1")),
     _field("edges", "e.flows", source=5),
     [("field_type", "e.flows", "edge field 'source' must be a string, got 5")]),
    ("edge-target-a-list",
     lambda g: g.add_edge(Edge("e.x", EdgeKind.FLOWS_TO, "ext.1", ["ctx.1"])),
     _field("edges", "e.flows", target=["ctx.1"]),
     [("field_type", "e.flows", "edge field 'target' must be a string, got ['ctx.1']")]),
    ("agent-id-a-number",
     lambda g: g.add_agent(AgentDescriptor(5)),
     _field("agents", "a2", agent_id=5),
     [("field_type", 5, "agent field 'agent_id' must be a string, got 5")]),
    ("agent-id-a-list",
     lambda g: g.add_agent(AgentDescriptor(["a9"])),
     _field("agents", "a2", agent_id=["a9"]),
     [("field_type", ["a9"], "agent field 'agent_id' must be a string, got ['a9']")]),
    ("agent-role-none",
     lambda g: g.add_agent(AgentDescriptor("a9", None)),
     _field("agents", "a2", role=None),
     [("field_type", "a2", "agent field 'role' must be a string, got None")]),
    ("agent-boundary-a-number",
     lambda g: g.add_agent(AgentDescriptor("a9", "worker", 3)),
     _field("agents", "a2", policy_boundary=3),
     [("field_type", "a2", "agent field 'policy_boundary' must be a string, got 3")]),
]


@pytest.mark.parametrize("insert, edit, violations",
                         [case[1:] for case in _MISTYPED_CASES],
                         ids=[case[0] for case in _MISTYPED_CASES])
def test_fields_that_are_not_strings_are_graph_errors(insert, edit, violations):
    graph = _insert_all(_PIN_DOC)
    before = graph.to_json()
    with pytest.raises(GraphError) as raised:
        insert(graph)
    assert type(raised.value) is GraphDocumentError
    assert str(raised.value) == violations[0][2]
    assert graph.to_json() == before
    loaded = AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC))
    edit(loaded)
    assert [(v.code, v.element_id, v.message) for v in loaded.validate()] == violations


def test_a_mistyped_node_reports_every_mistyped_field():
    graph = _insert_all(_PIN_DOC)
    with pytest.raises(GraphDocumentError, match="'node_id' must be a string, got 5"):
        graph.add_node(Node(5, NodeKind.EXTERNAL, 6, 7, _STAMP))
    loaded = AgentBomGraph.from_dict(copy.deepcopy(_PIN_DOC))
    _field("nodes", "ext.1", agent_id=6, trace_id=7)(loaded)
    assert [v.message for v in loaded.validate()] == [
        "node field 'agent_id' must be a string, got 6",
        "node field 'trace_id' must be a string, got 7",
    ]


def test_validate_and_digest_see_every_change_to_a_loaded_graph(graphs):
    """Neither answer is kept between calls: freezing stops appends, not
    changes to an element's attribute dict."""
    graph = AgentBomGraph.from_json(graphs["memory_poisoning_tool_misuse"].to_json())
    node = next(n for n in graph.nodes.values() if "content" in n.attributes)
    answers = [(graph.validate(), graph.digest())]
    node.attributes["content"] = 5
    answers.append((graph.validate(), graph.digest()))
    del node.attributes["content"]
    answers.append((graph.validate(), graph.digest()))
    (clean, first), (mistyped, second), (dropped, third) = answers
    assert clean == dropped == []
    assert [v.message for v in mistyped] == [
        f"{node.node_id!r} attribute 'content' must be a string"]
    assert len({first, second, third}) == 3


# the kinds filters the index is asked with: none, a few, every kind
_KIND_FILTERS = (None, frozenset({EdgeKind.FLOWS_TO, EdgeKind.INVOKES, EdgeKind.SENDS_TO}),
                 frozenset(EdgeKind))


def _assert_index_is_a_scan(graph: AgentBomGraph) -> None:
    """Every answer of the graph's index equals a brute-force scan of its
    node and edge tables, in insertion order, element for element."""
    edges, nodes = list(graph.edges.values()), list(graph.nodes.values())
    for node_id in [*graph.nodes, "no.such.node"]:
        for kinds in _KIND_FILTERS:
            wanted = [e for e in edges if kinds is None or e.kind in kinds]
            assert list(map(id, graph.out_edges(node_id, kinds))) == [
                id(e) for e in wanted if e.source == node_id]
            assert list(map(id, graph.in_edges(node_id, kinds))) == [
                id(e) for e in wanted if e.target == node_id]
    for kind in NodeKind:
        assert list(map(id, graph.nodes_of_kind(kind))) == [
            id(n) for n in nodes if n.kind is kind]
    for kind in EdgeKind:
        assert list(map(id, graph.edges_of_kind(kind))) == [
            id(e) for e in edges if e.kind is kind]


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_the_index_is_a_scan_of_random_graphs(timed):
    for seed in range(40):
        _assert_index_is_a_scan(random_graph(random.Random(seed), timed=timed))


def test_the_index_is_a_scan_of_fixture_and_loaded_graphs(graphs):
    for graph in graphs.values():
        _assert_index_is_a_scan(graph)
        _assert_index_is_a_scan(AgentBomGraph.from_json(graph.to_json()))
        _assert_index_is_a_scan(AgentBomGraph.from_dict(graph.to_dict()))


def test_the_index_stays_a_scan_of_an_open_graph_appended_to_after_a_query():
    """The index is built on the first query, and every append after that
    keeps it current: queried after each append, it is still a scan."""
    for seed in range(6):
        built = random_graph(random.Random(seed), timed=seed % 2 == 1)
        graph = AgentBomGraph()
        for descriptor in built.agents.values():
            graph.add_agent(descriptor)
        for element in [*built.nodes.values(), *built.edges.values()]:
            (graph.add_node if isinstance(element, Node) else graph.add_edge)(element)
            _assert_index_is_a_scan(graph)
        assert graph.to_json() == built.to_json()


def test_building_and_writing_a_graph_never_builds_its_index(fixtures):
    """Neither assembling a fixture nor writing its graph queries the index,
    so it is never built; a loaded graph builds it on its first query."""
    for fixture in fixtures.values():
        graph = fixture.build()
        text = graph.to_json()
        assert graph._index is None
        loaded = AgentBomGraph.from_json(text)
        assert loaded.validate() == [] and loaded._index is None
        loaded.out_edges(next(iter(loaded.nodes)))
        assert loaded._index is not None


def test_a_validation_error_quotes_three_violations_and_counts_the_rest():
    violations = [Violation("attribute_schema", f"n{i}", f"message {i}") for i in range(5)]
    for count in range(4):
        error = GraphValidationError(violations[:count])
        assert str(error) == "graph failed validation: " + "; ".join(
            f"message {i}" for i in range(count))
    for count in (4, 5):
        error = GraphValidationError(violations[:count])
        assert str(error) == ("graph failed validation: message 0; message 1; message 2; "
                              f"and {count - 3} more")
        assert error.violations == violations[:count]
