from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import (
    enumerate_paths,
    oracle_trace,
    random_dag,
    random_graph,
    random_spec_params,
    traced,
)
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node, parse_instant
from agentbom.predicates import AttrCmp, EntryAttr, NeighborMatch
from agentbom.schema import EdgeKind, NodeKind
from agentbom.traversal import BACKWARD, FORWARD, AuditPath, PathSpec, TraceContext, trace

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




def _only(node_id):
    """A terminal that accepts one node."""
    return lambda node: node.node_id == node_id


def _reached(graph, start, direction, kinds, **kw):
    """The nodes a trace finds a path to when each in turn is its only
    terminal: a forward trace stops at its first terminal, so this is how
    far flow reaches."""
    return {node_id for node_id in graph.nodes
            if trace(graph, start, _spec(direction, kinds, terminal=_only(node_id),
                                         **kw)).paths}


def _random_keep(rng, graph, direction):
    """Random keep tests: (keep_end, keep_marks, the brute-force kept test
    on flow-order element tuples). Half the time every path is kept."""
    if rng.random() < 0.5:
        return None, [], lambda path: True
    ids = sorted(graph.nodes) + sorted(graph.edges)
    ends = set(rng.sample(sorted(graph.nodes), max(1, len(graph.nodes) * 2 // 3)))
    marks = [set(rng.sample(ids, max(1, len(ids) // rng.randint(2, 6))))
             for _ in range(rng.randint(0, 2))]

    def kept(path):
        end = path[-1] if direction == FORWARD else path[0]
        return end in ends and all(mark.intersection(path) for mark in marks)

    return ends.__contains__, [mark.__contains__ for mark in marks], kept


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


def test_a_path_states_its_count_only_above_one():
    elements = ("a", "e1", "b")
    assert AuditPath(FORWARD, elements).to_dict() == {
        "direction": FORWARD, "elements": ["a", "e1", "b"]}
    assert AuditPath(FORWARD, elements, 3).to_dict() == {
        "direction": FORWARD, "elements": ["a", "e1", "b"], "count": 3}


def test_spec_rejects_bad_direction_and_depth():
    with pytest.raises(ValueError):
        PathSpec(direction="sideways", allowed_edge_kinds=frozenset({"flows_to"}))
    with pytest.raises(ValueError):
        PathSpec(direction=FORWARD, allowed_edge_kinds=frozenset({"flows_to"}),
                 max_depth=0)


def test_trace_rejects_a_start_the_graph_does_not_hold():
    graph = _chain_graph()
    with pytest.raises(ValueError, match="'no.such'"):
        trace(graph, "no.such", _spec(FORWARD, {"flows_to"}))


def test_spec_expands_family_aliases():
    spec = _spec(FORWARD, {"evolution"})
    assert EdgeKind.FLOWS_TO in spec.allowed_edge_kinds
    assert EdgeKind.INVOKES not in spec.allowed_edge_kinds


# ---------------------------------------------------------------------------
# orientation semantics on the hand-built chain
# ---------------------------------------------------------------------------

def test_forward_walks_with_the_flow():
    graph = _chain_graph()
    assert _reached(graph, "ext", FORWARD, {"flows_to"}) == {
        "goal", "ctx", "rea", "dec", "act"}
    [longest] = trace(graph, "ext", _spec(FORWARD, {"flows_to"},
                                          terminal=_only("act"))).paths
    assert longest.elements[0] == "ext"
    assert longest.elements[-1] == "act"
    # without a terminal every node ends a path, and the walk stops at the
    # nearest
    nearest = trace(graph, "ext", _spec(FORWARD, {"flows_to"})).paths
    assert [p.elements for p in nearest] == [("ext", "f.ext.goal", "goal")]


def test_backward_paths_are_stored_in_flow_order():
    graph = _chain_graph()
    [deepest] = trace(graph, "act", _spec(BACKWARD, {"flows_to"})).paths
    # origin is the most upstream element even though the walk started at act
    assert deepest.origin == "ext"
    assert deepest.terminus == "act"
    assert deepest.node_ids == ("ext", "goal", "ctx", "rea", "dec", "act")


def test_reads_from_carries_content_against_the_arrow():
    graph = _chain_graph()
    # backward from ctx: the read arrow points ctx -> mem.m, but the store
    # is upstream provenance, so the walk crosses it
    back = trace(graph, "ctx", _spec(BACKWARD, {"reads_from"})).paths
    assert [p.origin for p in back] == ["mem.m"]
    # and forward from the store reaches the reader
    fwd = trace(graph, "mem.m", _spec(FORWARD, {"reads_from"})).paths
    assert [p.terminus for p in fwd] == ["ctx"]


def test_invokes_couples_both_directions():
    graph = _chain_graph()
    assert _reached(graph, "tool.t", BACKWARD, {"invokes"}) == {"act"}
    assert _reached(graph, "tool.t", FORWARD, {"invokes"}) == {"act"}
    back = trace(graph, "tool.t", _spec(BACKWARD, {"invokes"}, terminal=_only("act")))
    fwd = trace(graph, "tool.t", _spec(FORWARD, {"invokes"}, terminal=_only("act")))
    assert [p.elements for p in back.paths] == [("act", "b.invoke", "tool.t")]
    assert [p.elements for p in fwd.paths] == [("tool.t", "b.invoke", "act")]


def test_propagation_needs_cross_agent():
    graph = _chain_graph()
    closed = trace(graph, "act", _spec(FORWARD, {"sends_to"}))
    assert closed.paths == ()
    open_spec = _spec(FORWARD, {"sends_to"}, cross_agent=True)
    assert [p.terminus for p in trace(graph, "act", open_spec).paths] == ["ext2"]


def test_node_kinds_gate_passage_but_not_arrival():
    graph = _chain_graph()
    # the walk may arrive at ctx through goal but cannot continue past it
    assert _reached(graph, "ext", FORWARD, {"flows_to"},
                    allowed_node_kinds=frozenset({NodeKind.GOAL})) == {"goal", "ctx"}


def test_max_depth_limits_edge_count():
    graph = _chain_graph()
    assert _reached(graph, "ext", FORWARD, {"flows_to"}, max_depth=2) == {"goal", "ctx"}
    [deepest] = trace(graph, "act", _spec(BACKWARD, {"flows_to"}, max_depth=2)).paths
    assert deepest.depth == 2 and deepest.origin == "rea"


def test_terminal_filters_recorded_paths():
    graph = _chain_graph()
    spec = _spec(FORWARD, {"flows_to"},
                 terminal=lambda node: node.kind is NodeKind.DECISION)
    assert [p.terminus for p in trace(graph, "ext", spec).paths] == ["dec"]


def test_edge_start_anchors_by_direction():
    graph = _chain_graph()
    fwd = trace(graph, "p.send", _spec(FORWARD, {"flows_to"}))
    assert fwd.paths == ()  # anchored at ext2, which has no outgoing flow
    back = trace(graph, "p.send", _spec(BACKWARD, {"flows_to"}))
    assert [p.depth for p in back.paths] == [5]  # anchored at act, walks to ext


def test_a_spec_traced_again_sees_edges_added_since():
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    for node_id, kind in [("ext", NodeKind.EXTERNAL), ("goal", NodeKind.GOAL),
                          ("ctx", NodeKind.CONTEXT)]:
        graph.add_node(_runtime(node_id, kind))
    graph.add_edge(Edge("f1", EdgeKind.FLOWS_TO, "ext", "goal"))
    spec = _spec(FORWARD, {"flows_to"}, terminal=_only("ctx"))
    assert trace(graph, "ext", spec).paths == ()
    graph.add_edge(Edge("f2", EdgeKind.FLOWS_TO, "goal", "ctx"))
    assert [p.terminus for p in trace(graph, "ext", spec).paths] == ["ctx"]


def test_paths_sort_by_depth_then_elements():
    graph = _chain_graph()
    spec = _spec(BACKWARD, {"flows_to", "reads_from"},
                 terminal=lambda node: node.kind in (NodeKind.EXTERNAL,
                                                     NodeKind.LONG_TERM_MEMORY))
    paths = trace(graph, "act", spec).paths
    assert [p.origin for p in paths] == ["mem.m", "ext"]
    keys = [(p.depth, p.elements) for p in paths]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# time order
# ---------------------------------------------------------------------------

def _two_sessions():
    """One agent's store, read in session one and written in session two.

    Session one (09:00-09:02): ext1 -> ctx1, and ctx1 reads mem.m.
    Session two (10:00-10:03): ext2 -> dec2 -> act2, act2 writes mem.m at
    10:02, and ctx2 reads mem.m at 10:03. The write comes after the first
    read, so no content flows from act2 to ctx1.
    """
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_node(Node(node_id="mem.m", kind=NodeKind.LONG_TERM_MEMORY))

    def runtime(node_id, kind, stamp, **attrs):
        graph.add_node(Node(node_id=node_id, kind=kind, agent_id="a1",
                            trace_id=node_id[-1], timestamp=stamp, attributes=attrs))

    runtime("ext1", NodeKind.EXTERNAL, "2026-03-01T09:00:00Z")
    runtime("ctx1", NodeKind.CONTEXT, "2026-03-01T09:02:00Z")
    runtime("ext2", NodeKind.EXTERNAL, "2026-03-01T10:00:00Z",
            trust_level="untrusted")
    runtime("dec2", NodeKind.DECISION, "2026-03-01T10:01:00Z")
    runtime("act2", NodeKind.ACTION, "2026-03-01T10:02:00Z", type="memory_write")
    runtime("ctx2", NodeKind.CONTEXT, "2026-03-01T10:03:00Z")
    graph.add_edge(Edge("f.ext1.ctx1", EdgeKind.FLOWS_TO, "ext1", "ctx1",
                        timestamp="2026-03-01T09:02:00Z"))
    graph.add_edge(Edge("b.read1", EdgeKind.READS_FROM, "ctx1", "mem.m",
                        timestamp="2026-03-01T09:02:00Z"))
    graph.add_edge(Edge("f.ext2.dec2", EdgeKind.FLOWS_TO, "ext2", "dec2"))
    graph.add_edge(Edge("f.dec2.act2", EdgeKind.FLOWS_TO, "dec2", "act2"))
    graph.add_edge(Edge("b.write2", EdgeKind.WRITES_TO, "act2", "mem.m",
                        timestamp="2026-03-01T10:02:00Z"))
    graph.add_edge(Edge("b.read2", EdgeKind.READS_FROM, "ctx2", "mem.m",
                        timestamp="2026-03-01T10:03:00Z"))
    graph.freeze()
    return graph


def test_a_later_write_does_not_reach_an_earlier_read():
    graph = _two_sessions()
    kinds = {"writes_to", "reads_from", "flows_to"}
    assert trace(graph, "act2", _spec(FORWARD, kinds, terminal=_only("ctx1"))).paths == ()
    assert _reached(graph, "act2", FORWARD, kinds) == {"mem.m", "ctx2"}
    assert "act2" not in _reached(graph, "ctx1", BACKWARD, kinds)
    assert _reached(graph, "ctx2", BACKWARD, kinds) == {
        "mem.m", "act2", "dec2", "ext2"}
    # the earlier read still takes what session one put in context
    assert _reached(graph, "ctx1", BACKWARD, kinds) == {"mem.m", "ext1"}
    [write_to_read] = trace(graph, "ctx2", _spec(BACKWARD, kinds,
                                                 terminal=_only("ext2"))).paths
    assert write_to_read.node_ids == ("ext2", "dec2", "act2", "mem.m", "ctx2")


def test_a_static_node_may_recur_at_a_later_time():
    """ctx1 -> mem.m is untimed here, so a walk from ext2 can pass the
    store at 10:02 only; from the store at no time yet, it reaches both
    reads, and the paths through it stay simple in (node, time) states."""
    graph = _two_sessions()
    fwd = trace(graph, "mem.m", _spec(FORWARD, {"reads_from"}))
    assert [p.terminus for p in fwd.paths] == ["ctx1", "ctx2"]
    back = trace(graph, "mem.m", _spec(BACKWARD, {"writes_to", "flows_to"}))
    assert [p.origin for p in back.paths] == ["ext2"]


def _shared_tool():
    """One tool invoked by act1 at 09:01 and act2 at 09:02, each fed by its
    own decision; every invokes edge carries its call's time."""
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    graph.add_node(Node(node_id="tool.t", kind=NodeKind.TOOL))
    for i in (1, 2):
        for node_id, kind in ((f"dec{i}", NodeKind.DECISION), (f"act{i}", NodeKind.ACTION)):
            graph.add_node(Node(node_id=node_id, kind=kind, agent_id="a1", trace_id="t1",
                                timestamp=f"2026-03-01T09:0{i}:00Z"))
        graph.add_edge(Edge(f"f.dec{i}.act{i}", EdgeKind.FLOWS_TO, f"dec{i}", f"act{i}"))
        graph.add_edge(Edge(f"b.invoke{i}", EdgeKind.INVOKES, f"act{i}", "tool.t",
                            timestamp=f"2026-03-01T09:0{i}:00Z"))
    graph.freeze()
    return graph


def test_trace_reads_the_stamps_of_an_unvalidated_graph_through_instant():
    """trace reads stamps through graph.instant: on a graph changed after
    insertion, an unreadable stamp raises ValueError, and an empty or
    missing one leaves its element untimed."""
    kinds = {"invokes", "flows_to"}
    # act1 and its call are earlier than act2, so act2 cannot reach act1
    assert _reached(_shared_tool(), "act2", FORWARD, kinds) == {"tool.t"}
    for bad in ("soon", "2026-02-30T09:00:00Z"):
        for element_id in ("act1", "b.invoke1"):
            graph = _shared_tool()
            graph.element(element_id).timestamp = bad
            with pytest.raises(ValueError):
                trace(graph, "act2", _spec(FORWARD, kinds))
    for empty in ("", None):
        graph = _shared_tool()
        graph.nodes["act1"].timestamp = empty
        graph.edges["b.invoke1"].timestamp = empty
        assert _reached(graph, "act2", FORWARD, kinds) == {"tool.t", "act1"}


def test_a_path_does_not_step_straight_back_over_an_edge():
    """The earlier call reaches the later one through the tool, but a path
    from the tool does not run into a call and straight back into the tool,
    although the tool at the call's time is a new state."""
    graph = _shared_tool()
    kinds = {"invokes", "flows_to"}
    [through] = trace(graph, "act1", _spec(FORWARD, kinds, terminal=_only("act2"))).paths
    assert through.elements == ("act1", "b.invoke1", "tool.t", "b.invoke2", "act2")
    fwd = trace(graph, "tool.t", _spec(FORWARD, kinds, terminal=_only("act2")))
    assert [(p.elements, p.count) for p in fwd.paths] == [
        (("tool.t", "b.invoke2", "act2"), 1)]
    back = trace(graph, "tool.t", _spec(BACKWARD, kinds, terminal=_only("dec1")))
    assert [(p.elements, p.count) for p in back.paths] == [
        (("dec1", "f.dec1.act1", "act1", "b.invoke1", "tool.t"), 1)]
    assert _reached(graph, "tool.t", BACKWARD, kinds) == {"act1", "act2", "dec1", "dec2"}


def _stamps_in_flow_order(graph, elements):
    """The runtime timestamps of a flow-order element tuple, as instants:
    edges and runtime nodes that carry one."""
    out = []
    for element_id in elements:
        element = graph.element(element_id)
        is_edge = element_id in graph.edges
        if element.timestamp and (is_edge or element.layer.value == "runtime"):
            out.append(parse_instant(element.timestamp))
    return out


def test_every_traced_witness_runs_forward_in_time():
    """On timed random graphs, where many edges run back in time, every
    witness a trace reports keeps its timestamps in flow order."""
    checked = backwards = 0
    for seed in range(300):
        rng = random.Random(83_000 + seed)
        graph = random_graph(rng, timed=True) if seed % 2 else random_dag(rng, timed=True)
        params = random_spec_params(rng, graph)
        params["max_depth"] = max(params["max_depth"], 4)
        spec = PathSpec(direction=params["direction"],
                        allowed_edge_kinds=frozenset(params["edge_kinds"]),
                        allowed_node_kinds=params["node_kinds"],
                        terminal=params["terminal"], max_depth=params["max_depth"],
                        cross_agent=params["cross_agent"])
        for start in rng.sample(sorted(graph.nodes), min(3, len(graph.nodes))):
            for path in trace(graph, start, spec).paths:
                stamps = _stamps_in_flow_order(graph, path.elements)
                assert stamps == sorted(stamps), (seed, path.elements)
                checked += 1
        backwards += sum(
            1 for edge in graph.edges.values()
            if graph.nodes[edge.source].timestamp and graph.nodes[edge.target].timestamp
            and parse_instant(graph.nodes[edge.source].timestamp)
            > parse_instant(graph.nodes[edge.target].timestamp))
    assert checked > 500 and backwards > 500


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

_RANDOM_CORPUS = """
import hashlib, random
from _oracles import random_dag, random_graph
for seed in range(30):
    for timed in (False, True):
        text = random_graph(random.Random(seed), timed=timed).to_json()
        print(seed, timed, hashlib.sha256(text.encode()).hexdigest())
        text = random_dag(random.Random(seed), timed=timed).to_json()
        print(seed, timed, hashlib.sha256(text.encode()).hexdigest())
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


def _compare(graph, start, spec, params, keep_end=None, keep_marks=(),
             kept=lambda path: True):
    """(production result, brute-force result) in one shape: the witnesses
    with their counts, the scope and the explored count."""
    got = traced(trace(graph, start, spec, keep_end=keep_end, keep_marks=keep_marks))
    return got, oracle_trace(graph, start, params, kept)


def test_trace_matches_brute_force_on_random_graphs():
    mismatches = []
    multiple = 0
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
            got, want = _compare(graph, start, spec, params)
            multiple += any(count > 1 for _, count in want[0])
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert multiple > 20


def test_trace_counts_match_brute_force_on_timed_corpora():
    """The referee for the counting pass. Timed random graphs and timed
    random DAGs, where some edges run back in time, both directions, every
    spec dimension and random keep tests: the witnesses, their counts, the
    scope and the explored count all equal brute-force enumeration and the
    report's reduction of it."""
    mismatches = []
    multiple = kept_some = pruned = 0
    for seed in range(400):
        rng = random.Random(89_000 + seed)
        graph = random_graph(rng, timed=True) if seed % 2 else random_dag(rng, timed=True)
        params = random_spec_params(rng, graph)
        if seed % 4 == 0:
            params["max_depth"] = rng.randint(6, 9)
        spec = PathSpec(
            direction=params["direction"],
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=params["node_kinds"],
            terminal=params["terminal"],
            max_depth=params["max_depth"],
            cross_agent=params["cross_agent"],
        )
        keep_end, keep_marks, kept = _random_keep(rng, graph, params["direction"])
        starts = rng.sample(sorted(graph.nodes), min(2, len(graph.nodes)))
        if graph.edges:
            starts.append(rng.choice(sorted(graph.edges)))
        for start in starts:
            got, want = _compare(graph, start, spec, params, keep_end, keep_marks, kept)
            multiple += any(count > 1 for _, count in want[0])
            kept_some += bool(want[0]) and keep_end is not None
            pruned += want[2] - sum(count for _, count in want[0])
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert multiple > 50 and kept_some > 50 and pruned > 500


def test_trace_with_stop_matches_brute_force_on_random_graphs():
    """A forward walk stops at a kept path: it is reported, and no path
    that extends it is walked. With random keep tests the explored count
    equals the brute-force list less every path with a kept proper
    anchor-prefix, and the witnesses are the kept paths among the rest."""
    mismatches = []
    stopped = 0
    for seed in range(400):
        rng = random.Random(67_000 + seed)
        graph = random_graph(rng)
        params = dict(random_spec_params(rng, graph), direction=FORWARD)
        spec = PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=params["node_kinds"],
            terminal=params["terminal"],
            max_depth=params["max_depth"],
            cross_agent=params["cross_agent"],
        )
        keep_end, keep_marks, kept = _random_keep(rng, graph, FORWARD)
        starts = rng.sample(sorted(graph.nodes), min(2, len(graph.nodes)))
        if graph.edges:
            starts.append(rng.choice(sorted(graph.edges)))
        for start in starts:
            got, want = _compare(graph, start, spec, params, keep_end, keep_marks, kept)
            stopped += len(enumerate_paths(graph, start, **params)) - want[2]
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert stopped > 1500


def _fruitless_revisits(walks, found, direction):
    """How many walks end at a node where an earlier walk already ended,
    neither of them a proper prefix of a found path: the arrivals whose
    continuations a counting pass must share rather than walk again."""
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
    found. With and without keep tests, and with and without time, the
    trace equals the brute-force reduction."""
    mismatches = []
    revisits = stopped = 0
    for seed in range(100):
        rng = random.Random(71_000 + seed)
        graph = random_dag(rng, timed=seed % 2 == 1)
        goals = set(rng.sample(sorted(graph.nodes), rng.randint(1, 3)))
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
        keep_end, keep_marks, kept = _random_keep(rng, graph, params["direction"])
        for start in rng.sample(sorted(graph.nodes), 3):
            full = enumerate_paths(graph, start, **params)
            walks = enumerate_paths(graph, start, **dict(params, terminal=None))
            revisits += _fruitless_revisits(walks, full, params["direction"])
            plain = _compare(graph, start, spec, params)
            with_keep = _compare(graph, start, spec, params, keep_end, keep_marks, kept)
            stopped += len(full) - with_keep[1][2]
            if plain[0] != plain[1] or with_keep[0] != with_keep[1]:
                mismatches.append((seed, start))
    assert mismatches == []
    assert revisits > 10_000 and stopped > 50


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
            got, want = _compare(graph, start, spec, params)
            found += want[2]
            if got != want:
                mismatches.append((seed, start))
    assert mismatches == []
    assert found > 500


# ---------------------------------------------------------------------------
# traces sharing one context
# ---------------------------------------------------------------------------

def _dead_end_graph():
    """w0 -> w1 -> S -> c -> T and y -> K -> S, all flows_to at one instant:
    S is two steps from T, and K three."""
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "worker", ""))
    for node_id in ("w0", "w1", "y", "K", "S", "c", "T"):
        graph.add_node(_runtime(node_id, NodeKind.REASONING))
    for source, target in (("w0", "w1"), ("w1", "S"), ("y", "K"), ("K", "S"),
                           ("S", "c"), ("c", "T")):
        graph.add_edge(Edge(f"{source}.{target}", EdgeKind.FLOWS_TO, source, target))
    graph.freeze()
    return graph


def test_a_dead_end_met_deep_is_walked_again_from_nearer():
    """From w0, S lies two steps deep and T is out of reach at depth 3;
    from y the walk may skip S there; from K, S lies one step deep and T is
    in reach. What the earlier traces learned of S and K must not hide it."""
    graph = _dead_end_graph()
    spec = _spec(FORWARD, {"flows_to"}, terminal=_only("T"), max_depth=3)
    context = TraceContext(graph, spec)
    assert trace(graph, "w0", spec, context=context).paths == ()
    assert trace(graph, "y", spec, context=context).paths == ()
    shared = trace(graph, "K", spec, context=context)
    assert traced(shared) == traced(trace(graph, "K", spec)) == (
        [(("K", "K.S", "S", "S.c", "c", "c.T", "T"), 1)],
        ("K", "K.S", "S", "S.c", "c", "c.T", "T"), 1)


def test_a_trace_skips_what_earlier_traces_found_dead():
    """Traced again through one context, a start whose walks find nothing
    makes only its own key, and other starts make fewer keys than fresh."""
    graph = _dead_end_graph()
    spec = _spec(FORWARD, {"flows_to"}, terminal=_only("T"), max_depth=3)
    context = TraceContext(graph, spec)
    assert trace(graph, "w0", spec, context=context).keys == 4
    assert trace(graph, "w0", spec, context=context).keys == 1
    assert trace(graph, "y", spec, context=context).keys == 3
    assert trace(graph, "y", spec).keys == 4


def _shared_case(rng, seed):
    """(graph, spec, oracle parameters, starts, (keep_end, keep_marks, kept)
    of a plain and of a keep-tested variant) for one seed: timed random
    graphs, untimed ones at one instant, and random DAGs in turn. Half the
    specs stop at one to three nodes, so that walks run dry at every depth."""
    shape = seed % 3
    if shape == 2:
        graph = random_dag(rng, timed=rng.random() < 0.5)
    else:
        graph = random_graph(rng, max_nodes=30, max_edges=45, timed=shape == 0)
    params = random_spec_params(rng, graph)
    if rng.random() < 0.5:
        goals = frozenset(rng.sample(sorted(graph.nodes), min(len(graph.nodes), rng.randint(1, 3))))
        params["terminal"] = lambda node: node.node_id in goals
    if seed % 2:
        params["max_depth"] = rng.randint(6, 8)
    spec = PathSpec(
        direction=params["direction"],
        allowed_edge_kinds=frozenset(params["edge_kinds"]),
        allowed_node_kinds=params["node_kinds"],
        terminal=params["terminal"],
        max_depth=params["max_depth"],
        cross_agent=params["cross_agent"],
    )
    starts = sorted(graph.nodes) + sorted(rng.sample(sorted(graph.edges),
                                                     min(3, len(graph.edges))))
    keeps = [(None, (), lambda path: True), _random_keep(rng, graph, params["direction"])]
    return graph, spec, params, starts, keeps


def test_traces_through_one_context_match_fresh_traces_and_brute_force():
    """The referee for what traces share. Every node and a few edges of
    timed random graphs, untimed ones and random DAGs are traced through
    one TraceContext in sorted, reversed and shuffled order, with and
    without keep tests: each result equals a trace with a context of its
    own and the brute-force reduction."""
    mismatches = []
    found = skipped = 0
    for seed in range(300):
        rng = random.Random(97_000 + seed)
        graph, spec, params, starts, keeps = _shared_case(rng, seed)
        shuffled = rng.sample(starts, len(starts))
        for keep_end, keep_marks, kept in keeps:
            fresh, want = {}, {}
            for start in starts:
                alone = trace(graph, start, spec, keep_end=keep_end, keep_marks=keep_marks)
                fresh[start] = (traced(alone), alone.keys)
                want[start] = oracle_trace(graph, start, params, kept)
                found += bool(want[start][0])
            for order in (starts, starts[::-1], shuffled):
                context = TraceContext(graph, spec)
                for start in order:
                    got = trace(graph, start, spec, keep_end=keep_end, keep_marks=keep_marks,
                                context=context)
                    skipped += fresh[start][1] - got.keys
                    if not traced(got) == fresh[start][0] == want[start]:
                        mismatches.append((seed, start))
    assert mismatches == []
    assert found > 2000 and skipped > 15_000
