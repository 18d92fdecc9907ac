"""Referee for AgentBomGraph.digest: the sha256 of the graph's compact,
key-sorted to_dict() text.

digest() encodes and hashes a batch of elements at a time instead of that
text, so every graph here, whether a fixture, random, or built to put a
batch boundary or an odd value in the way, is compared against
``sha256(json.dumps(to_dict(), sort_keys=True, separators=(",", ":")))``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import tracemalloc
from types import MappingProxyType

import pytest

from _oracles import random_graph
from agentbom.graph import _DIGEST_BATCH, AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.schema import EdgeKind, NodeKind

_STAMP = "2026-03-01T09:00:00Z"

# characters a JSON string encoder must escape or keep, ASCII and not
_ODD = '"\\\x00\x1f\x7f\t\n\xe9\u2028\u2029\ufeff\ud800\U0001f600'


def _canonical(graph: AgentBomGraph) -> str:
    return json.dumps(graph.to_dict(), sort_keys=True, separators=(",", ":"))


def _assert_refereed(graph: AgentBomGraph) -> None:
    assert graph.digest() == hashlib.sha256(_canonical(graph).encode("utf-8")).hexdigest()


def test_every_fixture(graphs):
    for graph in graphs.values():
        _assert_refereed(graph)


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_random_graphs(timed):
    for seed in range(40):
        _assert_refereed(random_graph(random.Random(seed), timed=timed))


def test_the_empty_graph():
    graph = AgentBomGraph()
    _assert_refereed(graph)
    assert graph.digest() == hashlib.sha256(b'{"agents":[],"edges":[],"nodes":[]}').hexdigest()


def _sized(agents: int, nodes: int, edges: int) -> AgentBomGraph:
    """A graph with exactly these many agents, code nodes and dependency edges."""
    graph = AgentBomGraph()
    for i in range(agents):
        graph.add_agent(AgentDescriptor(f"a{i}", "worker", ""))
    for i in range(nodes):
        graph.add_node(Node(f"code.{i}", NodeKind.CODE))
    for i in range(edges):
        graph.add_edge(Edge(f"e{i}", EdgeKind.DEPENDS_ON, f"code.{i % nodes}",
                            f"code.{(i + 1) % nodes}", _STAMP if i % 3 else None))
    return graph


_B = _DIGEST_BATCH


# each table is one short of a batch, exactly one, one over and two batches
# long in one of the cases
@pytest.mark.parametrize("agents, nodes, edges", [
    (_B - 1, _B, _B + 1), (_B, _B + 1, 2 * _B), (_B + 1, 2 * _B, _B - 1),
    (2 * _B, _B - 1, _B), (0, 1, 0),
])
def test_tables_around_the_batch_size(agents, nodes, edges):
    _assert_refereed(_sized(agents, nodes, edges))


def test_non_ascii_text():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_agent(AgentDescriptor("agent" + _ODD, _ODD, "n\u0153ud"))
    graph.add_node(Node("ext" + _ODD, NodeKind.EXTERNAL, "a1", "t" + _ODD, _STAMP,
                        {"content": _ODD, "source": "https://x.org/" + _ODD}))
    graph.add_node(Node("ctx" + _ODD, NodeKind.CONTEXT, "a1", "t1", _STAMP,
                        {"basis": ["ext" + _ODD]}))
    graph.add_edge(Edge("e" + _ODD, EdgeKind.FLOWS_TO, "ext" + _ODD, "ctx" + _ODD,
                        attributes={"trace_id": _ODD}))
    _assert_refereed(graph)


@pytest.mark.parametrize("attributes", [
    MappingProxyType({"tool_name": "t", "content": "run"}),
    [("tool_name", "t")],
], ids=["mapping-proxy", "pair-list"])
def test_attributes_that_are_not_a_dict(attributes):
    graph = _sized(1, 2, 1)
    graph.nodes["code.0"].attributes = attributes
    graph.edges["e0"].attributes = attributes
    _assert_refereed(graph)


def test_a_loaded_document_with_off_schema_values():
    doc = {
        "agents": [{"agent_id": "a1", "role": "worker", "policy_boundary": "fs"}],
        "nodes": [
            {"node_id": "act.1", "kind": "ActionNode", "agent_id": "a1",
             "trace_id": "t1", "timestamp": _STAMP,
             "attributes": {"parameters": {"deep": [[1, 2.5, -0.0], {"x": None}],
                                           "empty": {}, "none": []},
                            "count": 3, "ratio": 1e300, "flag": True,
                            "nested": [[[]], [{}], [{"z": "y", "a": [False]}]]}},
            {"node_id": "tool.t", "kind": "ToolNode", "attributes": {"n": -(2**70)}},
        ],
        "edges": [
            {"edge_id": "e1", "kind": "invokes", "source": "act.1", "target": "tool.t",
             "attributes": {"weights": [0.1, 2**70, -(2**63)], "when": 1.5}},
        ],
    }
    _assert_refereed(AgentBomGraph.from_dict(doc))


def test_a_cyclic_attributes_dict_raises_and_restores_the_collector():
    graph = _sized(1, 2, 1)
    attributes = {}
    attributes["self"] = [attributes]
    graph.nodes["code.1"].attributes = attributes
    assert gc.isenabled()
    with pytest.raises(ValueError):
        graph.digest()
    assert gc.isenabled()


def test_the_digest_holds_a_batch_not_the_whole_text():
    graph = random_graph(random.Random(7), max_nodes=4000, max_edges=4000, timed=True)
    assert len(graph.nodes) + len(graph.edges) > 7500
    canonical = len(_canonical(graph))
    expected = graph.digest()  # also loads hashlib, outside the measurement
    tracemalloc.start()
    try:
        assert graph.digest() == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # encoding the whole to_dict() copy peaked near 7.6 times the text
    assert peak < 2 * canonical, (peak, canonical)


def test_an_attribute_list_of_200000_strings():
    """The C encoder hands back a value of more than 100,000 pieces in
    several parts on 3.10 and 3.11; the digest joins them all."""
    graph = _sized(1, 2, 1)
    graph.nodes["code.0"].attributes = {"labels": [f"l{i}" for i in range(200_000)]}
    graph.edges["e0"].attributes = {"labels": ["x"] * 200_000}
    _assert_refereed(graph)


def test_a_kind_that_is_a_plain_string_raises_what_to_dict_raises():
    graph = _sized(1, 2, 1)
    graph.nodes["code.0"].kind = "CodeNode"
    with pytest.raises(AttributeError):
        graph.nodes["code.0"].to_dict()
    with pytest.raises(AttributeError):
        graph.digest()
    graph = _sized(1, 2, 1)
    graph.edges["e0"].kind = "depends_on"
    with pytest.raises(AttributeError):
        graph.edges["e0"].to_dict()
    with pytest.raises(AttributeError):
        graph.digest()


@pytest.mark.parametrize("where", ["agent-role", "node-agent-id", "edge-attribute", "edge-target"])
def test_a_cyclic_value_in_any_field_raises_value_error(where):
    graph = _sized(1, 2, 1)
    cycle = []
    cycle.append(cycle)
    if where == "agent-role":
        graph.agents["a0"].role = cycle
    elif where == "node-agent-id":
        graph.nodes["code.1"].agent_id = cycle
    elif where == "edge-attribute":
        graph.edges["e0"].attributes = {"weights": [1, {"again": cycle}]}
    else:
        graph.edges["e0"].target = cycle
    with pytest.raises(ValueError):
        graph.digest()
    assert gc.isenabled()
