from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import (
    enumerate_paths,
    random_dag,
    random_graph,
    random_spec_params,
    stopped_paths,
)
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.predicates import AttrCmp, EntryAttr, NeighborMatch
from agentbom.schema import EdgeKind, NodeKind
from agentbom.traversal import BACKWARD, FORWARD, AuditPath, PathSpec, trace

_STAMP = "2026-03-01T09:00:00Z"


def _runtime(node_id, kind, agent="a1", **attrs):
    return Node(node_id=node_id, kind=kind, agent_id=agent, trace_id="t1",
                timestamp=_STAMP, attributes=attrs)


def _chain_graph():
    """ext -> goal -> ctx -> rea -> dec -> act, with a tool and a store.

    act --invokes--> tool (couples both ways); ctx --reads_from--> mem
    (content moves store-to-context); act2 on a second agent is reachable
    only over a sends_to edge.
    """
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_agent(AgentDescriptor("a2", "worker", ""))
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    graph.add_node(Node(node_id="mem.m", kind=NodeKind.LONG_TERM_MEMORY))
    for node_id, kind in [
        ("ext", NodeKind.EXTERNAL),
        ("goal", NodeKind.GOAL),
        ("ctx", NodeKind.CONTEXT),
        ("rea", NodeKind.REASONING),
        ("dec", NodeKind.DECISION),
        ("act", NodeKind.ACTION),
    ]:
        graph.add_node(_runtime(node_id, kind))
    graph.add_node(_runtime("ext2", NodeKind.EXTERNAL, agent="a2"))

    chain = ["ext", "goal", "ctx", "rea", "dec", "act"]
    for src, dst in zip(chain, chain[1:]):
        graph.add_edge(Edge(f"f.{src}.{dst}", EdgeKind.FLOWS_TO, src, dst))
    graph.add_edge(Edge("b.read", EdgeKind.READS_FROM, "ctx", "mem.m"))
    graph.add_edge(Edge("b.invoke", EdgeKind.INVOKES, "act", "tool.t"))
    graph.add_edge(Edge("p.send", EdgeKind.SENDS_TO, "act", "ext2"))
    graph.freeze()
    return graph


def _spec(direction, kinds, **kw):
    return PathSpec(direction=direction, allowed_edge_kinds=frozenset(kinds), **kw)


# ---------------------------------------------------------------------------
# AuditPath and PathSpec basics
# ---------------------------------------------------------------------------

def test_path_accessors():
    path = AuditPath(FORWARD, ("a", "e1", "b", "e2", "c"))
    assert path.origin == "a"
    assert path.terminus == "c"
    assert path.depth == 2
    assert path.node_ids == ("a", "b", "c")
    assert path.edge_ids == ("e1", "e2")


def test_spec_rejects_bad_direction_and_depth():
    with pytest.raises(ValueError):
        PathSpec(direction="sideways", allowed_edge_kinds=frozenset({"flows_to"}))
    with pytest.raises(ValueError):
        PathSpec(direction=FORWARD, allowed_edge_kinds=frozenset({"flows_to"}),
                 max_depth=0)


def test_spec_expands_family_aliases():
    spec = _spec(FORWARD, {"evolution"})
    assert EdgeKind.FLOWS_TO in spec.allowed_edge_kinds
    assert EdgeKind.INVOKES not in spec.allowed_edge_kinds


# ---------------------------------------------------------------------------
# orientation semantics on the hand-built chain
# ---------------------------------------------------------------------------

def test_forward_walks_with_the_flow():
    graph = _chain_graph()
    paths = trace(graph, "ext", _spec(FORWARD, {"flows_to"}))
    termini = {p.terminus for p in paths}
    assert termini == {"goal", "ctx", "rea", "dec", "act"}
    longest = max(paths, key=lambda p: p.depth)
    assert longest.elements[0] == "ext"
    assert longest.elements[-1] == "act"


def test_backward_paths_are_stored_in_flow_order():
    graph = _chain_graph()
    paths = trace(graph, "act", _spec(BACKWARD, {"flows_to"}))
    deepest = max(paths, key=lambda p: p.depth)
    # origin is the most upstream element even though the walk started at act
    assert deepest.origin == "ext"
    assert deepest.terminus == "act"
    assert deepest.node_ids == ("ext", "goal", "ctx", "rea", "dec", "act")


def test_reads_from_carries_content_against_the_arrow():
    graph = _chain_graph()
    # backward from ctx: the read arrow points ctx -> mem.m, but the store
    # is upstream provenance, so the walk crosses it
    back = trace(graph, "ctx", _spec(BACKWARD, {"reads_from"}))
    assert [p.origin for p in back] == ["mem.m"]
    # and forward from the store reaches the reader
    fwd = trace(graph, "mem.m", _spec(FORWARD, {"reads_from"}))
    assert [p.terminus for p in fwd] == ["ctx"]


def test_invokes_couples_both_directions():
    graph = _chain_graph()
    back = trace(graph, "tool.t", _spec(BACKWARD, {"invokes"}))
    fwd = trace(graph, "tool.t", _spec(FORWARD, {"invokes"}))
    assert [p.origin for p in back] == ["act"]
    assert [p.terminus for p in fwd] == ["act"]


def test_propagation_needs_cross_agent():
    graph = _chain_graph()
    closed = trace(graph, "act", _spec(FORWARD, {"sends_to"}))
    assert closed == []
    open_spec = _spec(FORWARD, {"sends_to"}, cross_agent=True)
    assert [p.terminus for p in trace(graph, "act", open_spec)] == ["ext2"]


def test_node_kinds_gate_passage_but_not_arrival():
    graph = _chain_graph()
    spec = _spec(FORWARD, {"flows_to"},
                 allowed_node_kinds=frozenset({NodeKind.GOAL}))
    paths = trace(graph, "ext", spec)
    # the walk may arrive at ctx through goal but cannot continue past it
    assert {p.terminus for p in paths} == {"goal", "ctx"}


def test_max_depth_limits_edge_count():
    graph = _chain_graph()
    spec = _spec(FORWARD, {"flows_to"}, max_depth=2)
    assert max(p.depth for p in trace(graph, "ext", spec)) == 2


def test_terminal_filters_recorded_paths():
    graph = _chain_graph()
    spec = _spec(FORWARD, {"flows_to"},
                 terminal=lambda node: node.kind is NodeKind.DECISION)
    assert [p.terminus for p in trace(graph, "ext", spec)] == ["dec"]


def test_edge_start_anchors_by_direction():
    graph = _chain_graph()
    fwd = trace(graph, "p.send", _spec(FORWARD, {"flows_to"}))
    assert fwd == []  # anchored at ext2, which has no outgoing flow
    back = trace(graph, "p.send", _spec(BACKWARD, {"flows_to"}))
    assert max(p.depth for p in back) == 5  # anchored at act, walks to ext


def test_a_spec_traced_again_sees_edges_added_since():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    for node_id, kind in [("ext", NodeKind.EXTERNAL), ("goal", NodeKind.GOAL),
                          ("ctx", NodeKind.CONTEXT)]:
        graph.add_node(_runtime(node_id, kind))
    graph.add_edge(Edge("f1", EdgeKind.FLOWS_TO, "ext", "goal"))
    spec = _spec(FORWARD, {"flows_to"})
    assert [p.terminus for p in trace(graph, "ext", spec)] == ["goal"]
    graph.add_edge(Edge("f2", EdgeKind.FLOWS_TO, "goal", "ctx"))
    assert [p.terminus for p in trace(graph, "ext", spec)] == ["goal", "ctx"]


def test_paths_sort_by_depth_then_elements():
    graph = _chain_graph()
    paths = trace(graph, "ext", _spec(FORWARD, {"flows_to"}))
    keys = [(p.depth, p.elements) for p in paths]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

_RANDOM_CORPUS = """
import hashlib, random
from _oracles import random_graph
for seed in range(30):
    text = random_graph(random.Random(seed)).to_json()
    print(seed, hashlib.sha256(text.encode()).hexdigest())
"""


def test_random_graph_corpus_does_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _RANDOM_CORPUS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_trace_matches_brute_force_on_random_graphs():
    mismatches = []
    for seed in range(150):
        rng = random.Random(seed)
        graph = random_graph(rng)
        params = random_spec_params(rng, graph)
        starts = rng.sample(sorted(graph.nodes), min(2, len(graph.nodes)))
        if graph.edges:
            starts.append(rng.choice(sorted(graph.edges)))
        for start in starts:
            spec = PathSpec(
                direction=params["direction"],
                allowed_edge_kinds=frozenset(params["edge_kinds"]),
                allowed_node_kinds=params["node_kinds"],
                terminal=params["terminal"],
                max_depth=params["max_depth"],
                cross_agent=params["cross_agent"],
            )
            got = [p.elements for p in trace(graph, start, spec)]
            want = enumerate_paths(graph, start, **params)
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []


def test_trace_with_stop_matches_brute_force_on_random_graphs():
    """A path on which stop holds is returned but not extended: trace equals
    the brute-force list less every path with such a proper anchor-prefix."""
    mismatches = []
    pruned = 0
    for seed in range(150):
        rng = random.Random(67_000 + seed)
        graph = random_graph(rng)
        params = random_spec_params(rng, graph)
        marked = set(rng.sample(sorted(graph.nodes), max(1, len(graph.nodes) // 4)))
        stop = rng.choice((
            lambda elements: True,
            lambda elements: elements[0] in marked or elements[-1] in marked,
            lambda elements: bool(marked.intersection(elements)),
            lambda elements: len(elements) >= 5,
        ))
        spec = PathSpec(
            direction=params["direction"],
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=params["node_kinds"],
            terminal=params["terminal"],
            max_depth=params["max_depth"],
            cross_agent=params["cross_agent"],
        )
        starts = rng.sample(sorted(graph.nodes), min(2, len(graph.nodes)))
        if graph.edges:
            starts.append(rng.choice(sorted(graph.edges)))
        for start in starts:
            got = [p.elements for p in
                   trace(graph, start, spec, stop=lambda path: stop(path.elements))]
            full = enumerate_paths(graph, start, **params)
            want = stopped_paths(full, params["direction"], stop)
            pruned += len(full) - len(want)
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert pruned > 1500


def _fruitless_revisits(walks, found, direction):
    """How many walks end at a node where an earlier walk already ended,
    neither of them a proper prefix of a found path: the arrivals below
    which a trace would only walk a dead branch again."""
    if direction == BACKWARD:
        walks = [w[::-1] for w in walks]
        found = [f[::-1] for f in found]
    fruitful = {f[:end] for f in found for end in range(3, len(f), 2)}
    ended, revisits = set(), 0
    for walk in walks:
        if walk not in fruitful:
            revisits += walk[-1] in ended
            ended.add(walk[-1])
    return revisits


def test_trace_matches_brute_force_where_branches_run_dry():
    """Sparse terminals, walks of up to ten steps, diamond-like flow and
    invokes cycles: walks keep arriving at nodes below which nothing is
    found, some of them first reached while a node on the path cut the
    walk short. With and without stop, trace equals the brute-force list."""
    mismatches = []
    revisits = pruned = 0
    for seed in range(100):
        rng = random.Random(71_000 + seed)
        graph = random_dag(rng)
        goals = set(rng.sample(sorted(graph.nodes), rng.randint(1, 3)))
        marked = set(rng.sample(sorted(graph.nodes), 4))
        params = {
            "direction": rng.choice((FORWARD, BACKWARD)),
            "edge_kinds": rng.choice(({"flows_to", "influences", "invokes"},
                                      {"flows_to", "invokes"})),
            "node_kinds": rng.choice((None, {k.value for k in rng.sample(list(NodeKind), 12)})),
            "terminal": lambda node: node.node_id in goals,
            "max_depth": rng.randint(6, 10),
            "cross_agent": False,
        }
        spec = PathSpec(
            direction=params["direction"],
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=params["node_kinds"],
            terminal=params["terminal"],
            max_depth=params["max_depth"],
        )
        stop = rng.choice((
            lambda elements: True,
            lambda elements: len(elements) >= 7,
            lambda elements: bool(marked.intersection(elements)),
        ))
        for start in rng.sample(sorted(graph.nodes), 3):
            full = enumerate_paths(graph, start, **params)
            walks = enumerate_paths(graph, start, **dict(params, terminal=None))
            revisits += _fruitless_revisits(walks, full, params["direction"])
            want = stopped_paths(full, params["direction"], stop)
            pruned += len(full) - len(want)
            got = [p.elements for p in trace(graph, start, spec)]
            got_stopped = [p.elements for p in
                           trace(graph, start, spec, stop=lambda path: stop(path.elements))]
            if got != full or got_stopped != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert revisits > 10_000 and pruned > 50


def _flags(element):
    return set(element.attributes.get("danger_flags") or ())


_SHARES_ENTRY_FLAG = AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags"))
_FED_BY_ENTRY_FLAG = NeighborMatch("in", [k.value for k in EdgeKind],
                                   node=_SHARES_ENTRY_FLAG)


def _restated(predicate, graph, entry):
    """The entry-reading terminal restated by hand as a plain callable that
    closes over one entry."""
    wanted = _flags(entry)
    if predicate is _SHARES_ENTRY_FLAG:
        return lambda node: bool(wanted & _flags(node))
    return lambda node: any(
        edge.target == node.node_id and wanted & _flags(graph.nodes[edge.source])
        for edge in graph.edges.values())


def test_entry_reading_terminal_matches_brute_force_per_entry():
    """One spec traced from entries with different flags: the terminal's
    answer depends on the entry, so it may not carry over between traces."""
    mismatches = []
    found = 0
    for seed in range(150):
        rng = random.Random(91_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50)
        params = random_spec_params(rng, graph)
        predicate = rng.choice((_SHARES_ENTRY_FLAG, _FED_BY_ENTRY_FLAG))
        spec = PathSpec(
            direction=params["direction"],
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=params["node_kinds"],
            terminal=predicate,
            max_depth=params["max_depth"],
            cross_agent=params["cross_agent"],
        )
        # the first node carrying each flag, then an arbitrary node and edge
        by_flag = {}
        for node_id in sorted(graph.nodes):
            for flag in sorted(_flags(graph.nodes[node_id])):
                by_flag.setdefault(flag, node_id)
        starts = [by_flag[flag] for flag in sorted(by_flag)]
        starts.append(rng.choice(sorted(graph.nodes)))
        if graph.edges:
            starts.append(rng.choice(sorted(graph.edges)))
        for start in starts:
            params["terminal"] = _restated(predicate, graph, graph.element(start))
            got = [p.elements for p in trace(graph, start, spec)]
            want = enumerate_paths(graph, start, **params)
            found += len(want)
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert found > 500
