from __future__ import annotations

import pytest

from agentbom.errors import PredicateError
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.predicates import (
    MAX_DEPTH,
    And,
    Answers,
    AttrCmp,
    EntryAttr,
    HasFlag,
    KindIs,
    LayerIs,
    NeighborMatch,
    Not,
    Or,
    Predicate,
    predicate_from_dict,
)
from agentbom.schema import EdgeKind, NodeKind

_STAMP = "2026-03-01T09:00:00Z"


def _node(node_id="n", kind=NodeKind.ACTION, **attrs):
    return Node(node_id=node_id, kind=kind, agent_id="a1", trace_id="t1",
                timestamp=_STAMP, attributes=attrs)


def test_attr_eq_and_missing_is_false():
    pred = AttrCmp("trust_level", "==", "untrusted")
    assert pred.evaluate(_node(trust_level="untrusted"))
    assert not pred.evaluate(_node(trust_level="trusted"))
    assert not pred.evaluate(_node())  # absent attribute never matches


def test_attr_ne_still_requires_presence():
    pred = AttrCmp("environment_state_change", "!=", "")
    assert pred.evaluate(_node(environment_state_change="dir deleted"))
    assert not pred.evaluate(_node())


def test_attr_contains_strings_lists_and_maps():
    assert AttrCmp("content", "contains", "rm -rf").evaluate(
        _node(content="ran rm -rf /x")
    )
    assert AttrCmp("danger_flags", "contains", "a").evaluate(
        _node(danger_flags=["a", "b"])
    )
    assert AttrCmp("parameters", "contains", "command").evaluate(
        _node(parameters={"command": "ls"})
    )
    assert not AttrCmp("content", "contains", "x").evaluate(_node(content="y"))


def test_contains_and_intersects_are_false_on_maps_and_unhashable_items():
    params = _node(parameters={"command": "ls"})
    assert not AttrCmp("parameters", "intersects", "command").evaluate(params)
    assert not AttrCmp("parameters", "intersects", ["command"]).evaluate(params)
    assert not AttrCmp("parameters", "contains", ["command"]).evaluate(params)
    assert not AttrCmp("danger_flags", "intersects", [["a"]]).evaluate(
        _node(danger_flags=["a"]))
    # an entry attribute may resolve to a map
    entry = _node("entry", parameters={"command": "ls"})
    assert not AttrCmp("danger_flags", "intersects", EntryAttr("parameters")).evaluate(
        _node(danger_flags=["a"]), entry=entry)
    assert not AttrCmp("parameters", "contains", EntryAttr("parameters")).evaluate(
        params, entry=entry)
    assert AttrCmp("parameters", "==", EntryAttr("parameters")).evaluate(
        params, entry=entry)


def test_attr_intersects_promotes_scalars():
    pred = AttrCmp("danger_flags", "intersects", ["a", "z"])
    assert pred.evaluate(_node(danger_flags=["b", "z"]))
    assert not pred.evaluate(_node(danger_flags=["b"]))
    scalar = AttrCmp("trust_level", "intersects", ["untrusted"])
    assert scalar.evaluate(_node(trust_level="untrusted"))


def test_attr_unknown_comparator_rejected():
    with pytest.raises(PredicateError):
        AttrCmp("content", "~=", "x")


def test_entry_attr_resolves_against_the_entry_element():
    pred = AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags"))
    entry = _node("entry", danger_flags=["poison"])
    assert pred.evaluate(_node(danger_flags=["poison", "other"]), entry=entry)
    assert not pred.evaluate(_node(danger_flags=["other"]), entry=entry)
    # no entry in scope: the comparison cannot resolve, so it fails closed
    assert not pred.evaluate(_node(danger_flags=["poison"]), entry=None)


def test_has_flag_with_and_without_filter():
    assert HasFlag().evaluate(_node(danger_flags=["x"]))
    assert not HasFlag().evaluate(_node())
    assert HasFlag(("a",)).evaluate(_node(danger_flags=["a", "b"]))
    assert not HasFlag(("z",)).evaluate(_node(danger_flags=["a"]))


def test_kind_is_works_for_nodes_and_edges():
    assert KindIs(("ActionNode",)).evaluate(_node())
    edge = Edge("e", EdgeKind.SENDS_TO, "a", "b")
    assert KindIs(("sends_to",)).evaluate(edge)
    assert not KindIs(("ActionNode",)).evaluate(edge)


def test_layer_is_false_for_edges():
    assert LayerIs("runtime").evaluate(_node())
    assert not LayerIs("static").evaluate(_node())
    assert LayerIs("static").evaluate(Node(node_id="t", kind=NodeKind.TOOL))
    assert not LayerIs("runtime").evaluate(Edge("e", EdgeKind.FLOWS_TO, "a", "b"))


def test_boolean_connectives():
    flagged = HasFlag()
    untrusted = AttrCmp("trust_level", "==", "untrusted")
    node = _node(danger_flags=["x"], trust_level="trusted")
    assert Or([flagged, untrusted]).evaluate(node)
    assert not And([flagged, untrusted]).evaluate(node)
    assert Not(untrusted).evaluate(node)


def _neighbor_graph():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(_node("act", danger_flags=["destructive_command"]))
    graph.add_node(_node("act2"))
    graph.add_edge(Edge("e1", EdgeKind.INVOKES, "act", "tool.t"))
    graph.add_edge(Edge("e2", EdgeKind.INVOKES, "act2", "tool.t"))
    graph.freeze()
    return graph


def test_neighbor_match_inspects_incident_edges():
    graph = _neighbor_graph()
    tool = graph.nodes["tool.t"]
    flagged_caller = NeighborMatch("in", ("invokes",),
                                   node=HasFlag(("destructive_command",)))
    assert flagged_caller.evaluate(tool, graph=graph)
    assert not NeighborMatch("in", ("selects",)).evaluate(tool, graph=graph)
    out_pred = NeighborMatch("out", ("invokes",), node=KindIs(("ToolNode",)))
    assert out_pred.evaluate(graph.nodes["act"], graph=graph)


def test_neighbor_match_needs_a_graph_and_a_node():
    pred = NeighborMatch("in", ("invokes",))
    assert not pred.evaluate(_node(), graph=None)
    graph = _neighbor_graph()
    assert not pred.evaluate(graph.edges["e1"], graph=graph)
    with pytest.raises(PredicateError):
        NeighborMatch("sideways", ("invokes",))


def test_neighbor_match_resolves_its_edge_kinds_when_built():
    # a rule pack's unknown kind is a predicate error, not a graph error
    with pytest.raises(PredicateError, match="'teleports_to'"):
        NeighborMatch("in", ("invokes", "teleports_to"))
    with pytest.raises(PredicateError, match="'teleports_to'"):
        predicate_from_dict({"op": "neighbor", "direction": "in",
                             "edge_kinds": ["teleports_to"]})
    pred = NeighborMatch("out", (EdgeKind.INVOKES, "selects"))
    assert pred.to_dict()["edge_kinds"] == ["invokes", "selects"]
    graph = _neighbor_graph()
    assert pred.evaluate(graph.nodes["act"], graph=graph)


@pytest.mark.parametrize(
    "pred",
    [
        AttrCmp("trust_level", "==", "untrusted"),
        AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags")),
        HasFlag(("a", "b")),
        HasFlag(),
        KindIs(("ToolNode", "sends_to")),
        LayerIs("static"),
        Not(HasFlag()),
        And([HasFlag(), LayerIs("runtime")]),
        Or([HasFlag(), KindIs(("GoalNode",))]),
        NeighborMatch("in", ("invokes",), node=HasFlag(),
                      edge=AttrCmp("type", "==", "x")),
    ],
)
def test_serialization_round_trip(pred):
    doc = pred.to_dict()
    assert predicate_from_dict(doc).to_dict() == doc


def test_deserialization_rejects_unknown_ops_and_kinds():
    with pytest.raises(PredicateError):
        predicate_from_dict({"op": "telepathy"})
    with pytest.raises(PredicateError):
        predicate_from_dict({"op": "attr", "key": "x"})  # missing fields
    # a rule pack's unknown kind is a predicate error, not a graph error
    with pytest.raises(PredicateError, match="'NotAKind'"):
        predicate_from_dict({"op": "kind", "any_of": ["NotAKind"]})
    with pytest.raises(PredicateError):
        predicate_from_dict({"op": "attr", "key": "x", "cmp": "==",
                             "value": {"mystery": 1}})


def test_referenced_keys_collects_from_the_whole_tree():
    pred = And([
        AttrCmp("trust_level", "==", "untrusted"),
        Or([HasFlag(), Not(AttrCmp("content", "contains", "x"))]),
    ])
    assert pred.referenced_keys() == {"trust_level", "danger_flags", "content"}


def test_a_predicate_document_nests_at_most_max_depth_levels():
    doc = {"op": "flags"}
    for _ in range(MAX_DEPTH - 1):
        doc = {"op": "not", "arg": doc}
    assert predicate_from_dict(doc).to_dict() == doc
    for deeper in ({"op": "not", "arg": doc}, {"op": "and", "args": [doc]},
                   {"op": "neighbor", "direction": "in", "edge_kinds": [], "node": doc}):
        with pytest.raises(PredicateError, match=f"deeper than {MAX_DEPTH} levels"):
            predicate_from_dict(deeper)


class _Opaque(Predicate):
    """A predicate that does not say what it reads of the entry."""

    def __init__(self, calls):
        self.calls = calls

    def evaluate(self, element, graph=None, entry=None):
        self.calls.append((entry.node_id, element.node_id))
        return True


def test_entry_keys_collects_what_the_tree_reads_of_the_entry():
    pred = And([
        AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags")),
        Or([HasFlag(), Not(AttrCmp("content", "==", EntryAttr("content")))]),
        NeighborMatch("in", ("invokes",), node=AttrCmp("type", "==", EntryAttr("type"))),
    ])
    assert pred.entry_keys() == {"danger_flags", "content", "type"}
    assert And([HasFlag(), KindIs(("ToolNode",)), LayerIs("static"),
                AttrCmp("type", "==", "x")]).entry_keys() == frozenset()
    # one part that does not say makes the whole tree read all of the entry
    assert Or([HasFlag(), _Opaque([])]).entry_keys() is None


def test_answers_are_shared_by_entries_that_agree_on_what_is_read():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    flags = {"e1": ["x"], "e2": ["x"], "e3": ("x",), "e4": ["y"]}
    for node_id, value in flags.items():
        graph.add_node(_node(node_id, danger_flags=list(value)))
        graph.nodes[node_id].attributes["danger_flags"] = value
    graph.add_node(_node("n", danger_flags=["x"]))
    shares = AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags"))
    answers, opaque_calls = Answers(graph), []
    opaque = _Opaque(opaque_calls)
    keys = {entry_id: answers.key(shares, graph.nodes[entry_id]) for entry_id in flags}
    # equal values share a key; a tuple is not equal to a list
    assert keys["e1"] == keys["e2"]
    assert len({keys["e1"], keys["e3"], keys["e4"]}) == 3
    for entry_id in flags:
        ask = answers.asker(shares, graph.nodes[entry_id])
        assert ask("n") is (entry_id != "e4")
        assert answers.asker(opaque, graph.nodes[entry_id])("n") is True
    assert len(answers.tables) == 3 + len(flags)
    assert opaque_calls == [(entry_id, "n") for entry_id in flags]
