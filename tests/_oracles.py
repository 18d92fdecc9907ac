"""Independent reference implementations the tests compare against.

Nothing here imports the traversal module's tables. The flow orientations
and the propagation family are restated by hand from the documented
contract, and the path enumerator is a plain recursive walk over the raw
edge store, so a bug in the production adjacency indices or stepping
logic cannot cancel out.
"""

from __future__ import annotations

import random

from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.schema import ENDPOINT_TABLE, EdgeKind, Layer, NodeKind, layer_of

# Restated by hand: "with" means content moves along the arrow, "inv" means
# the arrow records an access and content moves against it, "both" couples
# the endpoints in either direction.
ORACLE_FLOW = {
    "has_prompt": "inv",
    "uses_model": "inv",
    "loads_tool": "inv",
    "loads_skill": "inv",
    "depends_on": "inv",
    "flows_to": "with",
    "transitions_to": "with",
    "influences": "with",
    "acts_on": "with",
    "emits": "with",
    "reads_from": "inv",
    "selects": "inv",
    "invokes": "both",
    "writes_to": "with",
    "updates": "with",
    "sends_to": "with",
    "delegates_to": "with",
    "responds_to": "inv",
    "shares_context_with": "with",
    "shares_memory_with": "inv",
}

ORACLE_PROPAGATION = frozenset(
    {"sends_to", "delegates_to", "responds_to", "shares_context_with",
     "shares_memory_with"}
)


def enumerate_paths(graph, start_id, direction, edge_kinds, node_kinds,
                    terminal, max_depth, cross_agent):
    """Brute-force all satisfying simple paths, as (element-tuple) list.

    Tuples are in flow order and the list is sorted by (edge count,
    elements), matching the production ordering contract. ``terminal`` is
    a plain node -> bool callable or None; ``node_kinds`` limits which
    kinds the walk may pass through (endpoints are exempt), or None.
    """
    forward = direction == "forward"
    if start_id in graph.edges:
        edge = graph.edges[start_id]
        anchor = edge.target if forward else edge.source
    else:
        anchor = start_id

    def options(node_id):
        out = []
        for edge in graph.edges.values():
            if edge.kind.value not in edge_kinds:
                continue
            if not cross_agent and edge.kind.value in ORACLE_PROPAGATION:
                continue
            flow = ORACLE_FLOW[edge.kind.value]
            if edge.source == node_id:
                wanted = ("with", "both") if forward else ("inv", "both")
                if flow in wanted:
                    out.append((edge, edge.target))
            if edge.target == node_id:
                wanted = ("inv", "both") if forward else ("with", "both")
                if flow in wanted:
                    out.append((edge, edge.source))
        return out

    found = []

    def walk(node_id, elements, visited, depth):
        if depth >= max_depth:
            return
        for edge, nxt in options(node_id):
            if nxt in visited:
                continue
            seq = elements + [edge.edge_id, nxt]
            if terminal is None or terminal(graph.nodes[nxt]):
                ordered = tuple(seq) if forward else tuple(reversed(seq))
                found.append(ordered)
            kind_ok = (
                node_kinds is None
                or graph.nodes[nxt].kind.value in node_kinds
            )
            if kind_ok:
                walk(nxt, seq, visited | {nxt}, depth + 1)

    walk(anchor, [anchor], {anchor}, 0)
    found.sort(key=lambda t: ((len(t) - 1) // 2, t))
    return found


def deepest_paths(paths):
    """The element tuples whose element set lies strictly inside no other's.

    Restated from the report contract ("deepest satisfying backward
    chains") as plain pairwise set inclusion; input order is kept.
    """
    sets = [set(p) for p in paths]
    return [p for p, mine in zip(paths, sets) if not any(mine < s for s in sets)]


def nearest_paths(paths):
    """The element tuples whose element set holds no other's strictly inside.

    Restated from the report contract ("nearest realized forward impact")
    as plain pairwise set inclusion; input order is kept.
    """
    sets = [set(p) for p in paths]
    return [p for p, mine in zip(paths, sets) if not any(s < mine for s in sets)]


def stopped_paths(paths, direction, stop):
    """The element tuples a trace with ``stop`` returns: the full list minus
    every path that has a proper anchor-prefix in the list on which ``stop``
    holds.

    Restated from the trace contract ("a path on which stop holds is
    returned but not extended"). ``paths`` are in flow order, so the anchor
    is the first element of a forward path and the last of a backward one;
    ``stop`` is a plain element-tuple -> bool callable. Input order is kept.
    """
    given = set(paths)

    def anchor_prefixes(path):
        ends = range(3, len(path), 2)
        if direction == "forward":
            return [path[:end] for end in ends]
        return [path[-end:] for end in ends]

    return [p for p in paths
            if not any(q in given and stop(q) for q in anchor_prefixes(p))]


# ---------------------------------------------------------------------------
# random valid graphs
# ---------------------------------------------------------------------------

_STAMP = "2026-03-01T00:00:00Z"


def random_graph(rng: random.Random, max_nodes: int = 50,
                 max_edges: int = 70) -> AgentBomGraph:
    """A random graph that satisfies every construction invariant."""
    graph = AgentBomGraph()
    agents = [f"a{i}" for i in range(rng.randint(1, 3))]
    for agent_id in agents:
        graph.add_agent(AgentDescriptor(agent_id, "worker", ""))

    kinds = list(NodeKind)
    count = rng.randint(2, max_nodes)
    for i in range(count):
        kind = rng.choice(kinds)
        attrs = {}
        if rng.random() < 0.35:
            attrs["danger_flags"] = [rng.choice(("flag_a", "flag_b"))]
        if rng.random() < 0.25:
            attrs["trust_level"] = rng.choice(("trusted", "untrusted"))
        node = Node(node_id=f"n{i}", kind=kind, attributes=attrs)
        if layer_of(kind) is Layer.RUNTIME:
            node.agent_id = rng.choice(agents)
            node.trace_id = "t0"
            node.timestamp = _STAMP
        graph.add_node(node)

    by_kind = {}
    for node in graph.nodes.values():
        by_kind.setdefault(node.kind, []).append(node.node_id)

    edge_kinds = list(EdgeKind)
    added = 0
    for attempt in range(max_edges * 3):
        if added >= max_edges:
            break
        kind = rng.choice(edge_kinds)
        # the table holds frozensets of enum members, which hash by name and
        # so iterate in an order that changes with PYTHONHASHSEED
        src_kinds, tgt_kinds = (sorted(kinds, key=lambda k: k.value)
                                for kinds in ENDPOINT_TABLE[kind])
        src_pool = [n for k in src_kinds for n in by_kind.get(k, ())]
        tgt_pool = [n for k in tgt_kinds for n in by_kind.get(k, ())]
        if not src_pool or not tgt_pool:
            continue
        source = rng.choice(src_pool)
        target = rng.choice(tgt_pool)
        if kind.value in ORACLE_PROPAGATION:
            src_agent = graph.nodes[source].agent_id
            tgt_agent = graph.nodes[target].agent_id
            if src_agent is not None and src_agent == tgt_agent:
                continue  # would need a shared-object marker; just skip
        graph.add_edge(Edge(edge_id=f"e{added}", kind=kind,
                            source=source, target=target))
        added += 1

    graph.freeze()
    return graph


def random_dag(rng: random.Random, nodes: int = 24) -> AgentBomGraph:
    """A graph whose content flow is acyclic apart from invokes.

    Runtime nodes n0..n{nodes-1} of one agent; each node after the first
    is fed by one to three earlier ones over flows_to or influences, so
    paths multiply as in a diamond chain. Actions invoke one of two shared
    tools, and invokes couples both ways, so a tool with several invokers
    closes cycles among them.
    """
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a0", "worker", ""))
    runtime = sorted((k for k in NodeKind if layer_of(k) is Layer.RUNTIME),
                     key=lambda k: k.value)
    for t in range(2):
        graph.add_node(Node(node_id=f"tool{t}", kind=NodeKind.TOOL))
    count = 0
    for i in range(nodes):
        kind = NodeKind.ACTION if rng.random() < 0.3 else rng.choice(runtime)
        graph.add_node(Node(node_id=f"n{i}", kind=kind, agent_id="a0",
                            trace_id="t0", timestamp=_STAMP))
        for j in sorted(rng.sample(range(i), min(i, rng.randint(1, 3)))):
            kind_of_edge = rng.choice((EdgeKind.FLOWS_TO, EdgeKind.INFLUENCES))
            graph.add_edge(Edge(f"e{count:03d}", kind_of_edge, f"n{j}", f"n{i}"))
            count += 1
        if kind is NodeKind.ACTION and rng.random() < 0.8:
            graph.add_edge(Edge(f"e{count:03d}", EdgeKind.INVOKES, f"n{i}",
                                f"tool{rng.randrange(2)}"))
            count += 1
    graph.freeze()
    return graph


def random_spec_params(rng: random.Random, graph: AgentBomGraph) -> dict:
    """Random traversal parameters exercising every spec dimension."""
    all_kinds = [k.value for k in EdgeKind]
    if rng.random() < 0.2:
        picked = set(all_kinds)
    else:
        picked = set(rng.sample(all_kinds, rng.randint(3, 12)))
    node_kinds = None
    if rng.random() < 0.3:
        node_kinds = {k.value for k in rng.sample(list(NodeKind), 8)}
    terminal = None
    roll = rng.random()
    if roll < 0.35:
        wanted = {k.value for k in rng.sample(list(NodeKind), 5)}
        terminal = lambda node: node.kind.value in wanted  # noqa: E731
    elif roll < 0.55:
        terminal = lambda node: bool(node.attributes.get("danger_flags"))  # noqa: E731
    return {
        "direction": rng.choice(("forward", "backward")),
        "edge_kinds": picked,
        "node_kinds": node_kinds,
        "terminal": terminal,
        "max_depth": rng.randint(1, 5),
        "cross_agent": rng.random() < 0.5,
    }
