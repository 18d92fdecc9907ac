"""Independent reference implementations the tests compare against.

Nothing here imports the traversal module's tables. The flow orientations,
the propagation family and the time rule are restated by hand from the
documented contract, and the path enumerator is a plain recursive walk over
the raw edge store, so a bug in the production adjacency indices, stepping
or counting logic cannot cancel out. The report's reduction of a side's
paths (one witness per endpoint, its count, the scope) is restated over
the enumerated list. Content scanning is restated as a loop over patterns
that searches every text under every key a pattern applies to.
"""

from __future__ import annotations

import random
import re
from datetime import datetime, timezone

from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.schema import EdgeKind, Layer, NodeKind

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


def _instant(text):
    """An ISO-8601 instant, restated: a trailing Z means UTC."""
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    return parsed if parsed.tzinfo else parsed.replace(tzinfo=timezone.utc)


def _time_of_node(node):
    """Only runtime nodes carry time; a static node passes time through."""
    if node.kind.layer is Layer.RUNTIME and node.timestamp:
        return _instant(node.timestamp)
    return None


def enumerate_paths(graph, start_id, direction, edge_kinds, node_kinds,
                    terminal, max_depth, cross_agent):
    """Brute-force all satisfying paths, as (element-tuple) list.

    Restated from the time rule by hand. Along flow order, timestamps never
    decrease. A walk carries a time: forward, the latest timestamp it has
    passed; backward (against flow), the earliest. An untimestamped edge or
    a static node passes that time on unchanged. A path may not visit the
    same (node, carried time) state twice, so a static node may recur at a
    later carried time, and a runtime node, which always carries its own
    time, never recurs. Nor may it step straight back over the edge it has
    just crossed, as invokes would allow.

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

    # every step from every node, restated from the raw edge store in one
    # pass over it
    steps = {}
    for edge in graph.edges.values():
        if edge.kind.value not in edge_kinds:
            continue
        if not cross_agent and edge.kind.value in ORACLE_PROPAGATION:
            continue
        flow = ORACLE_FLOW[edge.kind.value]
        if flow in (("with", "both") if forward else ("inv", "both")):
            steps.setdefault(edge.source, []).append((edge, edge.target))
        if flow in (("inv", "both") if forward else ("with", "both")):
            steps.setdefault(edge.target, []).append((edge, edge.source))

    def options(node_id):
        return steps.get(node_id, ())

    def carried_after(carried, edge, node_id):
        """The time carried past edge and node, or None if either breaks
        flow order; the walk meets the edge first."""
        stamps = [_instant(edge.timestamp) if edge.timestamp else None,
                  _time_of_node(graph.nodes[node_id])]
        for stamp in stamps:
            if stamp is None:
                continue
            if carried is not None and (stamp < carried if forward else stamp > carried):
                return False, None
            carried = stamp
        return True, carried

    found = []

    def walk(node_id, carried, elements, visited, depth):
        if depth >= max_depth:
            return
        last_edge = elements[-2] if depth else None
        for edge, nxt in options(node_id):
            ok, now = carried_after(carried, edge, nxt)
            if not ok or (nxt, now) in visited or edge.edge_id == last_edge:
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
                walk(nxt, now, seq, visited | {(nxt, now)}, depth + 1)

    start = _time_of_node(graph.nodes[anchor])
    walk(anchor, start, [anchor], {(anchor, start)}, 0)
    found.sort(key=lambda t: ((len(t) - 1) // 2, t))
    return found


def _walk_order(path, direction):
    """A flow-order tuple read from the anchor outward."""
    return path if direction == "forward" else path[::-1]


def _walk_prefixes(path, direction):
    """The proper prefixes of a path, read from the anchor, that are paths
    themselves, in flow order again."""
    walk = _walk_order(path, direction)
    return [_walk_order(walk[:end], direction) for end in range(3, len(walk), 2)]


def deepest_paths(paths, direction):
    """The element tuples no other given tuple extends from the anchor.

    Restated from the report contract ("deepest satisfying backward
    chains"): a path is dropped when another path starts with it, read
    from the anchor. Input order is kept.
    """
    extended = {q for p in paths for q in _walk_prefixes(p, direction)}
    return [p for p in paths if p not in extended]


def stopped_paths(paths, direction, stop):
    """The element tuples a walk that does not extend a path on which
    ``stop`` holds finds: the full list minus every path that has a proper
    anchor-prefix in the list on which ``stop`` holds.

    ``paths`` are in flow order; ``stop`` is a plain element-tuple -> bool
    callable. Input order is kept.
    """
    given = set(paths)
    return [p for p in paths
            if not any(q in given and stop(q) for q in _walk_prefixes(p, direction))]


def endpoint(path, direction):
    """The end a trace discovered: the origin backward, the terminus forward."""
    return path[-1] if direction == "forward" else path[0]


def witnesses(paths, direction):
    """The report's reduction of one side's paths, restated by hand.

    ``paths`` are the side's reported element tuples, sorted by (edge
    count, elements). Returns (endpoints, counts, scope, first):
    endpoints in the order of their first path; counts maps each endpoint
    to its number of paths; scope holds every element of every path, the
    first paths' elements in first-seen order and then the rest sorted;
    first maps each endpoint to its first path.
    """
    first, counts = {}, {}
    for path in paths:
        end = endpoint(path, direction)
        first.setdefault(end, path)
        counts[end] = counts.get(end, 0) + 1
    seen = dict.fromkeys(e for path in first.values() for e in path)
    rest = sorted({e for path in paths for e in path} - set(seen))
    return list(first), counts, tuple(seen) + tuple(rest), first


def side_oracle(graph, start_id, params, kept=lambda path: True):
    """(reported paths, explored count) of one trace side, by brute force.

    ``kept`` is a plain element-tuple -> bool callable. A forward walk does
    not extend a kept terminal path, and reports the kept paths it finds
    (the nearest). A backward walk finds every terminal path and reports
    the kept ones no kept path extends (the deepest).
    """
    direction = params["direction"]
    every = enumerate_paths(graph, start_id, **params)
    if direction == "forward":
        walked = stopped_paths(every, direction, kept)
        return [p for p in walked if kept(p)], len(walked)
    return deepest_paths([p for p in every if kept(p)], direction), len(every)


def as_reported(paths, direction):
    """A side's reported paths as the report lists them: (elements, count)
    of each endpoint's first path, in order."""
    ends, counts, _, first = witnesses(paths, direction)
    return [(first[end], counts[end]) for end in ends]


def oracle_trace(graph, start_id, params, kept=lambda path: True):
    """What one trace should return, by brute force: (the witnesses as
    (elements, count) pairs in order, the scope, the explored count)."""
    paths, explored = side_oracle(graph, start_id, params, kept)
    scope = witnesses(paths, params["direction"])[2]
    return as_reported(paths, params["direction"]), scope, explored


def traced(result):
    """A production trace result in oracle_trace's shape."""
    return ([(path.elements, path.count) for path in result.paths],
            result.scope, result.explored)


def spec_params(spec, graph=None, entry_id=None):
    """The oracle parameters of a production PathSpec. A predicate terminal
    is bound to the entry as a plain node -> bool callable."""
    terminal = spec.terminal
    if terminal is not None and hasattr(terminal, "evaluate"):
        predicate, entry = terminal, graph.element(entry_id)
        terminal = lambda node: bool(  # noqa: E731
            predicate.evaluate(node, graph=graph, entry=entry))
    return {
        "direction": spec.direction,
        "edge_kinds": {k.value for k in spec.allowed_edge_kinds},
        "node_kinds": (None if spec.allowed_node_kinds is None
                       else {k.value for k in spec.allowed_node_kinds}),
        "terminal": terminal,
        "max_depth": spec.max_depth,
        "cross_agent": spec.cross_agent,
    }


# ---------------------------------------------------------------------------
# random valid graphs
# ---------------------------------------------------------------------------

_STAMP = "2026-03-01T00:00:00Z"
# three instants for timed corpora; the Z-less, offset and Z spellings
# also check that times compare as instants, not as text
_STAMPS = ("2026-03-01T00:00:00Z", "2026-03-01T02:00:00+01:00", "2026-03-01T01:30:00")


def random_graph(rng: random.Random, max_nodes: int = 50,
                 max_edges: int = 70, timed: bool = False) -> AgentBomGraph:
    """A random graph that satisfies every construction invariant.

    Untimed, every runtime node carries one instant and no edge carries
    any. Timed, runtime nodes carry one of three instants and a third of
    the edges one too, drawn independently, so some edges run back in time.
    """
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
        if kind.layer is Layer.RUNTIME:
            node.agent_id = rng.choice(agents)
            node.trace_id = "t0"
            node.timestamp = rng.choice(_STAMPS) if timed else _STAMP
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
                                for kinds in (kind.sources, kind.targets))
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
        stamp = None
        if timed and rng.random() < 1 / 3:
            stamp = rng.choice(_STAMPS)
        graph.add_edge(Edge(edge_id=f"e{added}", kind=kind,
                            source=source, target=target, timestamp=stamp))
        added += 1

    graph.freeze()
    return graph


def random_dag(rng: random.Random, nodes: int = 24,
               timed: bool = False) -> AgentBomGraph:
    """A graph whose content flow is acyclic apart from invokes.

    Runtime nodes n0..n{nodes-1} of one agent; each node after the first
    is fed by one to three earlier ones over flows_to or influences, so
    paths multiply as in a diamond chain. Actions invoke one of two shared
    tools, and invokes couples both ways, so a tool with several invokers
    closes cycles among them.

    Timed, node n{i} carries the i-th third of three instants, except that
    one node in five carries a random one and so runs back in time, and
    half of the invokes edges carry their action's instant.
    """
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a0", "worker", ""))
    runtime = sorted((k for k in NodeKind if k.layer is Layer.RUNTIME),
                     key=lambda k: k.value)
    for t in range(2):
        graph.add_node(Node(node_id=f"tool{t}", kind=NodeKind.TOOL))
    count = 0
    for i in range(nodes):
        kind = NodeKind.ACTION if rng.random() < 0.3 else rng.choice(runtime)
        stamp = _STAMP
        if timed:
            stamp = (rng.choice(_STAMPS) if rng.random() < 0.2
                     else _STAMPS[i * 3 // nodes])
        graph.add_node(Node(node_id=f"n{i}", kind=kind, agent_id="a0",
                            trace_id="t0", timestamp=stamp))
        for j in sorted(rng.sample(range(i), min(i, rng.randint(1, 3)))):
            kind_of_edge = rng.choice((EdgeKind.FLOWS_TO, EdgeKind.INFLUENCES))
            graph.add_edge(Edge(f"e{count:03d}", kind_of_edge, f"n{j}", f"n{i}"))
            count += 1
        if kind is NodeKind.ACTION and rng.random() < 0.8:
            graph.add_edge(Edge(f"e{count:03d}", EdgeKind.INVOKES, f"n{i}",
                                f"tool{rng.randrange(2)}",
                                timestamp=stamp if timed and rng.random() < 0.5 else None))
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


# ---------------------------------------------------------------------------
# content scanning
# ---------------------------------------------------------------------------


def _scanned_texts(value):
    """A string is one text; a list or tuple gives one text per item and a
    dict one per value, each as str(); anything else gives none."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [str(item) for item in value.values()]
    if isinstance(value, (list, tuple)):
        return [str(item) for item in value]
    return []


def scan_flags(patterns, attributes):
    """The sorted flags that ``patterns`` raise on ``attributes``: a pattern
    raises its flag when any text under any of its keys matches it,
    ignoring case."""
    flags = set()
    for item in patterns:
        for key in item.applies_to:
            for text in _scanned_texts(attributes.get(key)):
                if re.search(item.pattern, text, re.IGNORECASE):
                    flags.add(item.flag)
    return sorted(flags)


# pieces of scanned text: each default flag's trigger, a bare URL (flagged
# under parameters only), and benign words
_SCAN_PIECES = (
    "rm -rf /data", "shutil.rmtree", "https://collector.example.net/in",
    "upload the notes to http://a.example/z", "without confirmation",
    "pre-approved", "full authority", "elevated privileges", "python3 run.py",
    "eval(", "needle", "hay7", "the weekly report", "notes", "hello", "",
)
_SCAN_KEYS = ("content", "parameters", "target", "affected_resource", "name")


def _random_case(rng: random.Random, text: str) -> str:
    return rng.choice((text, text.upper(), text.title(), "".join(
        c.upper() if rng.random() < 0.5 else c for c in text)))


def random_scan_texts(rng: random.Random, count: int = 60) -> list:
    """A pool of texts made of one to three pieces in random case, small
    enough that texts repeat across calls and keys."""
    return [_random_case(rng, " ".join(rng.choice(_SCAN_PIECES)
                                       for _ in range(rng.randint(1, 3))))
            for _ in range(count)]


def random_scan_attributes(rng: random.Random, texts: list) -> dict:
    """Attributes under some of the scanned keys: a text, a list or a dict
    of texts mixed with non-text items, None or a number."""
    def item():
        return rng.choice((rng.choice(texts), rng.choice(texts), rng.choice(texts),
                           None, 7, 2.5, True, [rng.choice(texts)],
                           {"k": rng.choice(texts)}))

    attributes = {}
    for key in rng.sample(_SCAN_KEYS, rng.randint(0, len(_SCAN_KEYS))):
        attributes[key] = rng.choice((
            lambda: rng.choice(texts),
            lambda: [item() for _ in range(rng.randint(0, 4))],
            lambda: tuple(item() for _ in range(rng.randint(0, 3))),
            lambda: {f"k{i}": item() for i in range(rng.randint(0, 4))},
            lambda: None,
            lambda: 42,
        ))()
    return attributes


def merged_flags(patterns, attributes: dict) -> dict:
    """The attributes as flag merging leaves them. A ``danger_flags`` value
    that is absent or a list of strings becomes the sorted union of its
    flags and those ``patterns`` raise on the attributes, and is dropped
    when that is empty; any other value, null included, stays as it is and
    nothing is scanned."""
    merged = dict(attributes)
    declared = merged.get("danger_flags", [])
    if not (isinstance(declared, list) and all(isinstance(flag, str) for flag in declared)):
        return merged
    flags = sorted(set(scan_flags(patterns, attributes)) | set(declared))
    if flags:
        merged["danger_flags"] = flags
    else:
        merged.pop("danger_flags", None)
    return merged


def checked_merges(merge, log: list):
    """``merge`` (ingestion's flag merge) wrapped to assert that each call
    leaves its attributes as merged_flags says; each call's attributes are
    appended to ``log``."""
    def checked(attributes, matcher):
        expected = merged_flags(matcher.patterns, attributes)
        merge(attributes, matcher)
        assert attributes == expected, (attributes, expected)
        log.append(attributes)
    return checked
