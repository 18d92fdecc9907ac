"""validate()'s whole answer, pinned.

Insertion and validate() share one check per element class, and that check
is tuned for speed, so every violation it reports, and the order it reports
them in, is pinned here: the sha256 of the full (code, element id, message)
list for every graph mutant of ``test_fuzz`` that loads, and for each
fixture graph given one hand-made defect. A defect is also pinned through
insertion: the first error that re-adding the defective graph's elements to
a fresh graph raises, in the order the fixture was built.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib

import pytest

from test_fuzz import _DOCUMENTS, _GRAPHS, MUTANTS_PER_DOCUMENT, _mutate

from agentbom import schema
from agentbom.errors import AgentBomError
from agentbom.graph import AgentBomGraph
from agentbom.schema import EdgeKind, Layer


def _answer(graph) -> list:
    return [(v.code, v.element_id, v.message) for v in graph.validate()]


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# graph case of test_fuzz -> sha256 of [(mutant number, answer)] over the
# mutants that load
MUTANTS_PINNED = {
    "graph-memory_poisoning_tool_misuse":
        "594e0c171d09d27b055b2a287f4aa438ed4d7323a2433b6429637e5964991b53",
    "graph-supply_chain_code_exec":
        "932ffffcc87d67aa736be5f6b5c832182bc4d6aa671a744f502e914fdd70be2f",
    "graph-ecosystem_hijacking":
        "7a70f30d0762a97b56b7fc3bab85e669ede40aa8229fd368f4feb6200280e9fa",
    "graph-privilege_trust_abuse":
        "a74860cab77604b79abfb81539ceaea221698b8bfb0ea3428c471bef186b9de0",
    "graph-benign_baseline":
        "13206d63e25d2a2449540f6e068a736f07415a54b84b5a609a4a16936696343e",
}

_GRAPH_DOCUMENTS = [d for d in _DOCUMENTS if d[1] == "graph"]


@pytest.mark.parametrize("case, kind, text, table, sid", _GRAPH_DOCUMENTS,
                         ids=[d[0] for d in _GRAPH_DOCUMENTS])
def test_every_loading_graph_mutant_validates_as_pinned(case, kind, text, table, sid):
    # the mutants test_fuzz makes: the same seed, the same draws
    rng = random.Random(zlib.crc32(case.encode()))
    answers = []
    for number in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        _mutate(rng, mutant, table)
        try:
            graph = AgentBomGraph.from_json(json.dumps(mutant))
        except AgentBomError:
            continue
        answers.append((number, _answer(graph)))
    assert sum(1 for _, answer in answers if answer), "no mutant breaks an invariant"
    assert _sha(answers) == MUTANTS_PINNED[case]


# ---------------------------------------------------------------------------
# one hand-made defect per violation code
# ---------------------------------------------------------------------------


def _first(table: dict, test=lambda element: True):
    return next((table[i] for i in sorted(table) if test(table[i])), None)


def _runtime(node) -> bool:
    return node.kind.layer is Layer.RUNTIME


class _Text(str):
    """A string subclass: the attribute checks take it as a string."""


def _field_type(graph):
    _first(graph.nodes, _runtime).agent_id = 7
    _first(graph.agents).role = ["planner"]


def _empty_id(graph):
    _first(graph.nodes).node_id = ""
    _first(graph.edges).edge_id = ""


def _duplicate_id(graph):
    # validate() reads the tables by key and never sees this; insertion does
    edge = _first(graph.edges)
    node = _first(graph.nodes)
    graph.edges["zz.duplicate"] = type(edge)(edge.edge_id, edge.kind, edge.source,
                                            edge.target)
    graph.nodes["zz.duplicate"] = type(node)(node.node_id, node.kind, node.agent_id,
                                            node.trace_id, node.timestamp)


def _unknown_kind(graph):
    node = _first(graph.nodes)
    node.kind = "bogus"
    # an edge at such a node is not checked here: validate() raises on it
    for edge_id in [e for e, edge in graph.edges.items()
                    if node.node_id in (edge.source, edge.target)]:
        del graph.edges[edge_id]
    _first(graph.edges).kind = "bogus"


def _attribute_schema(graph):
    nodes = sorted(graph.nodes)
    attributes = graph.nodes[nodes[0]].attributes
    attributes["content"] = 5
    attributes["trust_level"] = "maybe"
    attributes["unheard_of"] = "x"
    attributes[3] = "a key that is not a string"
    attributes["danger_flags"] = ["ok", 1]
    attributes["type"] = _Text("kept")
    graph.nodes[nodes[1]].attributes = ["not", "a", "map"]
    graph.nodes[nodes[2]].timestamp = "yesterday"
    edges = sorted(graph.edges)
    graph.edges[edges[0]].attributes["content"] = None
    graph.edges[edges[0]].attributes["propagation_status"] = "lost"
    graph.edges[edges[1]].timestamp = "2026-13-45T99:00:00Z"
    graph.edges[edges[2]].attributes = "text"


def _layer_metadata(graph):
    runtime = [n for _, n in sorted(graph.nodes.items()) if _runtime(n)]
    runtime[0].trace_id = None
    runtime[1].agent_id = ""
    runtime[2].timestamp = None
    _first(graph.nodes, lambda n: not _runtime(n)).trace_id = "t-static"


def _unknown_agent(graph):
    _first(graph.nodes, _runtime).agent_id = "ghost"


def _dangling_endpoint(graph):
    edges = sorted(graph.edges)
    graph.edges[edges[0]].target = "nowhere"
    graph.edges[edges[1]].source = "nowhere"


def _endpoint_kind(graph):
    edge = _first(graph.edges)
    source, target = graph.nodes[edge.source].kind, graph.nodes[edge.target].kind
    edge.kind = next(kind for kind in EdgeKind
                     if source not in kind.sources or target not in kind.targets)


def _cross_agent(graph):
    edge = _first(graph.edges, lambda e: e.kind in schema.PROPAGATION_KINDS)
    if edge is None:  # this fixture has no propagation edge: make one
        edge = _first(graph.edges)
        edge.kind = EdgeKind.SENDS_TO
    source, target = graph.nodes[edge.source], graph.nodes[edge.target]
    target.agent_id = source.agent_id = source.agent_id or _first(graph.agents).agent_id
    for node in (source, target):
        if isinstance(node.attributes, dict):
            node.attributes.pop("shared_state", None)


def _unresolved_reference(graph):
    with_basis = [n for _, n in sorted(graph.nodes.items()) if "basis" in n.attributes]
    with_basis[0].attributes["basis"].append("nowhere")
    with_basis[1].attributes["basis"] = [with_basis[1].node_id, 5, "gone"]
    with_basis[2].attributes["parameter_source"] = ["missing"]
    node = _first(graph.nodes, lambda n: "source" in n.attributes)
    node.attributes["source"] = "not-a-node"
    _first(graph.nodes, lambda n: n is not node).attributes["source"] = "https://x.example"


DEFECTS = {
    "clean": lambda graph: None,
    "field_type": _field_type,
    "empty_id": _empty_id,
    "duplicate_id": _duplicate_id,
    "unknown_kind": _unknown_kind,
    "attribute_schema": _attribute_schema,
    "layer_metadata": _layer_metadata,
    "unknown_agent": _unknown_agent,
    "dangling_endpoint": _dangling_endpoint,
    "endpoint_kind": _endpoint_kind,
    "cross_agent": _cross_agent,
    "unresolved_reference": _unresolved_reference,
}

# defect -> sha256 of [(fixture, validate() answer, first insertion error)]
# over the five fixtures
DEFECTS_PINNED = {
    "clean":
        "aaa2a9bf51b7fc05f7023a1b9a6b769f8f050a7508b4a0a9f02c92ba14fdae05",
    "field_type":
        "0e4043b8a3a6462cfeb98cc941dd7cee0d6e8c4f84f0a954b0c889364bd2839e",
    "empty_id":
        "33914693f6b73341ae9a2fdc438e40a91b47ee4069a7e88790d08016e897a3a5",
    "duplicate_id":
        "2dcaf40f662ed640e3dc76423a5748fa9bae4e21d52733be9c6d3ab613de144e",
    "unknown_kind":
        "c59d07ab5d04d7fb8200ef752228373aad923e666c6ea0273a0d057f1aab9f65",
    "attribute_schema":
        "3f55d78bdd08d505a7d581eaf257d00bbe76a113533bdbf2a89a52eef7f08019",
    "layer_metadata":
        "01eb8468978bc60576f26999baf93d0ad8c799dba9b0d22ad4298b8794b0cfe8",
    "unknown_agent":
        "51aca83ed3010d8c8ec9ee7bd58d2a73e01e136b00d8d00c567c8fc6ca687e95",
    "dangling_endpoint":
        "53174399298a435f4def0ec568231afe0f2237dd51c739245916bcff8c9dda7a",
    "endpoint_kind":
        "45307c4e83109b33b3a181881b0a05e652d47aaf0c322fdf16b8b45f86dfa9d7",
    "cross_agent":
        "d27dbfeb82a7cf2bb21d27abfeffd851abb898f7662caa8c3dcf987d8e8f53f5",
    "unresolved_reference":
        "9ef720a5da8dde267d64e52ad006a456cad344cc7dfd79ab8c093e16abbc8cb9",
}


def _reinserted(graph, built):
    """The first error that adding ``graph``'s elements to a fresh graph
    raises, in ``built``'s insertion order, as (class name, message)."""
    def ordered(table, order):
        rank = {key: index for index, key in enumerate(order)}
        return [table[key] for key in sorted(table, key=lambda k: (rank.get(k, len(rank)), k))]

    fresh = AgentBomGraph()
    try:
        for agent in ordered(graph.agents, built.agents):
            fresh.add_agent(agent)
        for node in ordered(graph.nodes, built.nodes):
            fresh.add_node(node)
        for edge in ordered(graph.edges, built.edges):
            fresh.add_edge(edge)
    except AgentBomError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_each_defect_validates_and_inserts_as_pinned(defect):
    answers = []
    for sid, built in _GRAPHS.items():
        graph = AgentBomGraph.from_json(built.to_json())
        DEFECTS[defect](graph)
        answers.append((sid, _answer(graph), _reinserted(graph, built)))
    if defect == "clean":
        assert not any(answer or error for _, answer, error in answers)
    else:
        assert any(code == defect for _, answer, _ in answers for code, _, _ in answer) or (
            # validate() reads its tables by key, so only insertion sees a duplicate
            defect == "duplicate_id"
            and all(error[0] == "DuplicateIdError" for _, _, error in answers))
    assert _sha(answers) == DEFECTS_PINNED[defect]
