"""Referee for AgentBomGraph.to_json: the stdlib's indented, key-sorted text
of the graph's to_dict() document.

to_json writes each element's text from its fields instead of encoding a
to_dict() copy, so every graph here, random or built to reach one corner of
the writer, is compared against ``json.dumps(to_dict(), indent=2,
sort_keys=True)``.
"""

from __future__ import annotations

import json
import random

import pytest

from _oracles import random_graph
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node, dump_json
from agentbom.schema import EdgeKind, NodeKind

_STAMP = "2026-03-01T09:00:00Z"

# characters a JSON string encoder must escape or keep, ASCII and not
_ODD = '"\\\x00\x1f\x7f\t\n\xe9\u2028\u2029\ufeff\ud800\U0001f600'


def _stdlib_text(graph: AgentBomGraph) -> str:
    return json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n"


def _assert_refereed(graph: AgentBomGraph) -> None:
    assert graph.to_json() == _stdlib_text(graph)


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_to_json_matches_the_stdlib_on_random_graphs(timed):
    for seed in range(120):
        _assert_refereed(random_graph(random.Random(seed), timed=timed))


def test_empty_and_agent_only_graphs():
    graph = AgentBomGraph()
    assert graph.to_json() == '{\n  "agents": [],\n  "edges": [],\n  "nodes": []\n}\n'
    _assert_refereed(graph)
    graph.add_agent(AgentDescriptor("b", "auditor", "read only"))
    graph.add_agent(AgentDescriptor("a"))
    _assert_refereed(graph)


def _two_agents() -> AgentBomGraph:
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_agent(AgentDescriptor("a2", "worker", ""))
    return graph


def test_every_optional_field_absent_or_set():
    graph = _two_agents()
    graph.add_node(Node("tool.t", NodeKind.TOOL))  # nothing optional
    graph.add_node(Node("ext.1", NodeKind.EXTERNAL, "a1", "t1", _STAMP,
                        {"content": "hi", "trust_level": "untrusted"}))
    graph.add_node(Node("act.1", NodeKind.ACTION, "a1", "t1", _STAMP,
                        {"tool_name": "t"}))
    graph.add_edge(Edge("e.invokes", EdgeKind.INVOKES, "act.1", "tool.t"))
    graph.add_edge(Edge("e.flows", EdgeKind.FLOWS_TO, "ext.1", "act.1", _STAMP,
                        {"trace_id": "t1"}))
    doc = json.loads(graph.to_json())
    assert sorted(doc["nodes"][2]) == ["attributes", "kind", "node_id"]
    assert sorted(doc["nodes"][1]) == ["agent_id", "attributes", "kind", "node_id",
                                       "timestamp", "trace_id"]
    _assert_refereed(graph)
    graph.add_node(Node("tool.u", NodeKind.TOOL, agent_id="a2"))  # agent, no trace
    _assert_refereed(graph)


def test_odd_characters_in_ids_and_values():
    graph = _two_agents()
    graph.add_agent(AgentDescriptor("agent" + _ODD, _ODD, _ODD))
    graph.add_node(Node("ext" + _ODD, NodeKind.EXTERNAL, "a1", "t" + _ODD, _STAMP,
                        {"content": _ODD, "source": "https://x.org/" + _ODD}))
    graph.add_node(Node("ctx" + _ODD, NodeKind.CONTEXT, "a1", "t1", _STAMP,
                        {"basis": ["ext" + _ODD]}))
    graph.add_edge(Edge("e" + _ODD, EdgeKind.FLOWS_TO, "ext" + _ODD, "ctx" + _ODD,
                        attributes={"trace_id": _ODD}))
    _assert_refereed(graph)


def test_a_loaded_document_with_nested_values():
    doc = {
        "agents": [{"agent_id": "a1", "role": "worker", "policy_boundary": "fs"}],
        "nodes": [
            {"node_id": "act.1", "kind": "ActionNode", "agent_id": "a1",
             "trace_id": "t1", "timestamp": _STAMP,
             "attributes": {"parameters": {"deep": [[1, 2.5, -0.0], {"x": None}],
                                           "empty": {}, "none": []},
                            "count": 3, "ratio": 1e300, "flag": True,
                            "nested": [[[]], [{}], [{"z": "y", "a": [False]}]],
                            # registered keys holding lists the writer does not
                            # join whole, and unregistered, non-ASCII keys
                            "basis": [], "danger_flags": ["b", 1, "a", None],
                            "selected_tools": ["x", ["y"], {"k": "v"}],
                            "cl\xe9 \u2028": "v", _ODD: [_ODD, "z"]}},
            {"node_id": "tool.t", "kind": "ToolNode", "attributes": {}},
        ],
        "edges": [
            {"edge_id": "e1", "kind": "invokes", "source": "act.1", "target": "tool.t",
             "attributes": {"weights": [0.1, 2**70, -(2**63)],
                            "trace_id": {"nested": {"deeper": ["s", 1]}}}},
        ],
    }
    graph = AgentBomGraph.from_dict(doc)
    _assert_refereed(graph)
    assert AgentBomGraph.from_json(graph.to_json()).to_dict() == graph.to_dict()


@pytest.mark.parametrize("section, element_id, name, value", [
    ("nodes", "act.1", "node_id", 5),
    ("nodes", "act.1", "agent_id", ["a1", 2]),
    ("nodes", "act.1", "trace_id", {"t": 1}),
    ("nodes", "act.1", "timestamp", 1.5),
    ("nodes", "tool.t", "attributes", [("tool_name", "t")]),
    ("edges", "e1", "edge_id", None),
    ("edges", "e1", "source", 7),
    ("edges", "e1", "target", [["tool.t"]]),
    ("edges", "e1", "timestamp", True),
    ("agents", "a1", "role", 5),
], ids=lambda value: repr(value) if not isinstance(value, str) else value)
def test_a_field_set_to_a_non_string_after_insertion(section, element_id, name, value):
    graph = _two_agents()
    graph.add_node(Node("tool.t", NodeKind.TOOL, attributes={"tool_name": "t"}))
    graph.add_node(Node("act.1", NodeKind.ACTION, "a1", "t1", _STAMP, {"tool_name": "t"}))
    graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act.1", "tool.t", _STAMP))
    setattr(getattr(graph, section)[element_id], name, value)
    _assert_refereed(graph)


class _Text(str):
    """A string subclass: written as the string it is."""


def test_elements_built_with_fields_that_are_not_plain_strings():
    """Fields set when each element is made, past the insertion checks, to
    every kind of JSON value and to a string subclass, under ids that sort
    the elements in their table."""
    graph = _two_agents()
    values = [5, -0.0, 2**70, 1e300, True, None, [], ["a", 2], {"k": [1, {"z": None}]},
              _Text("sub"), _Text(_ODD), "plain" + _ODD, _Text("content"),
              [_Text("a"), _Text(_ODD)], ["a", _Text("b"), 3, "c"]]
    for number, value in enumerate(values):
        graph.nodes[f"n{number:02}"] = Node(value, NodeKind.ACTION, value, value, value,
                                            {"content": value})
        graph.nodes[f"s{number:02}"] = Node(value, EdgeKind.INVOKES, attributes={value: 1}
                                            if isinstance(value, str) else {})
        graph.edges[f"e{number:02}"] = Edge(value, EdgeKind.SENDS_TO, value, value, value,
                                            {"trace_id": value})
    assert graph.to_json() == dump_json(graph.to_dict())
    _assert_refereed(graph)


def test_to_json_builds_no_element_documents(monkeypatch):
    graph = random_graph(random.Random(7), timed=True)
    expected = _stdlib_text(graph)

    def refused(self):
        raise AssertionError(f"{type(self).__name__}.to_dict called")

    for cls in (AgentBomGraph, Node, Edge):
        monkeypatch.setattr(cls, "to_dict", refused)
    assert graph.to_json() == expected
