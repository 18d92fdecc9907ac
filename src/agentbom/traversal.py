"""Path tracing over the graph, following content flow rather than arrows.

Each edge kind has a flow orientation (schema.FLOW_OF_KIND): most arrows
point the way content moves, access-style arrows (reads_from, selects, the
structural loads) point the other way, and invokes couples its endpoints in
both directions. A forward trace follows flow away from the start node; a
backward trace walks flow in reverse toward provenance.

Paths are simple (no repeated node), contain at least one edge, and are
stored in flow order: elements[0] is the most upstream element. For a
backward trace that upstream end is the origin the walk discovered, and the
terminal predicate applies to it; for a forward trace the predicate applies
to the downstream terminus.

Within one trace a node below which a walk found nothing, never cut short
by a node already on its path, is marked dead for the steps that walk had
left; a later arrival with no more steps left does not walk on from it.
That keeps a trace that finds nothing from walking every path below it,
which on a diamond chain is Fibonacci-many.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import schema
from .graph import AgentBomGraph
from .schema import Flow, NodeKind

BACKWARD = "backward"
FORWARD = "forward"


# ===========================================================================
# specs and paths
# ===========================================================================


@dataclass
class PathSpec:
    """What a single trace is allowed to touch and where it may stop."""

    direction: str
    allowed_edge_kinds: frozenset
    allowed_node_kinds: frozenset | None = None
    terminal: object = None
    max_depth: int = 32
    cross_agent: bool = False

    def __post_init__(self):
        if self.direction not in (BACKWARD, FORWARD):
            raise ValueError(f"direction must be backward or forward, got {self.direction!r}")
        self.allowed_edge_kinds = schema.expand_edge_kinds(self.allowed_edge_kinds)
        if self.allowed_node_kinds is not None:
            self.allowed_node_kinds = frozenset(
                k if isinstance(k, NodeKind) else schema.parse_node_kind(k)
                for k in self.allowed_node_kinds
            )
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")

    def to_dict(self) -> dict:
        doc = {
            "direction": self.direction,
            "edge_kinds": sorted(k.value for k in self.allowed_edge_kinds),
            "max_depth": self.max_depth,
            "cross_agent": self.cross_agent,
        }
        if self.allowed_node_kinds is not None:
            doc["node_kinds"] = sorted(k.value for k in self.allowed_node_kinds)
        if self.terminal is not None:
            doc["terminal"] = self.terminal.to_dict()
        return doc


@dataclass(frozen=True)
class AuditPath:
    """One traced path: alternating node and edge ids in flow order."""

    direction: str
    elements: tuple

    @property
    def origin(self) -> str:
        return self.elements[0]

    @property
    def terminus(self) -> str:
        return self.elements[-1]

    @property
    def depth(self) -> int:
        return (len(self.elements) - 1) // 2

    @property
    def node_ids(self) -> tuple:
        return self.elements[0::2]

    @property
    def edge_ids(self) -> tuple:
        return self.elements[1::2]

    def to_dict(self) -> dict:
        return {"direction": self.direction, "elements": list(self.elements)}


# ===========================================================================
# stepping
# ===========================================================================


def _steps(graph: AgentBomGraph, node_id: str, spec: PathSpec) -> list:
    """The (edge_id, next_node_id) pairs leaving node_id in spec's
    direction, sorted by edge id."""
    forward = spec.direction == FORWARD
    out = []
    for edges, along, far_end in ((graph.out_edges(node_id), Flow.WITH, "target"),
                                  (graph.in_edges(node_id), Flow.INV, "source")):
        for edge in edges:
            flow = schema.FLOW_OF_KIND[edge.kind]
            if flow is not Flow.BOTH and (flow is along) != forward:
                continue
            if edge.kind not in spec.allowed_edge_kinds:
                continue
            if not spec.cross_agent and edge.family is schema.EdgeFamily.PROPAGATION:
                continue
            out.append((edge.edge_id, getattr(edge, far_end)))
    out.sort()
    return out


def _terminal_ok(spec: PathSpec, graph: AgentBomGraph, element, entry) -> bool:
    terminal = spec.terminal
    if terminal is None:
        return True
    if hasattr(terminal, "evaluate"):
        return bool(terminal.evaluate(element, graph=graph, entry=entry))
    return bool(terminal(element))


def _start_node(graph: AgentBomGraph, start: str, direction: str) -> str:
    """An edge start anchors at its source (backward) or target (forward)."""
    if start in graph.edges:
        edge = graph.edges[start]
        return edge.source if direction == BACKWARD else edge.target
    return start


# ===========================================================================
# the trace operation
# ===========================================================================


def trace(graph: AgentBomGraph, start: str, spec: PathSpec, *, stop=None) -> list:
    """Enumerate every satisfying simple path from start under spec.

    Returns paths ordered by (depth, lexical element sequence). The entry
    element passed to terminal predicates is the start element itself, so
    predicates may compare against the entry's attributes.

    ``stop`` is an optional callable on a found path: a path on which it
    holds is still returned, but the walk does not extend it, so no path
    with it as a proper prefix from the anchor is returned.

    Each node's steps, terminal answer and passability are computed once,
    in tables local to this call: predicates are pure functions of (element,
    graph, entry), and the graph does not change during an audit.

    A walk on from a node that found no path and never met a node already
    on the current path has covered every walk of up to its remaining
    steps from that node, and none ends at a terminal. The node is then
    dead for that many steps (the "blocked" idea of Johnson, "Finding all
    the elementary circuits of a directed graph", SIAM J. Comput. 1975): a
    later arrival with at most that many steps left still records the
    node's own terminal path but does not walk on from it. ``stop`` is
    asked only on found paths, so it never fires below a dead node.
    """
    entry = graph.element(start)
    anchor = _start_node(graph, start, spec.direction)
    max_depth = spec.max_depth
    found: list[AuditPath] = []
    # discovery order: anchor first, walking outward; flow order for a
    # backward trace is the reverse of that
    stack_elements = [anchor]
    visited = {anchor}
    steps = {}     # node id -> its (edge id, next node id) pairs
    arrivals = {}  # node id -> (terminal holds there, walk may pass through)
    dead = {}      # node id -> steps within which a walk on from it finds nothing

    def descend(node_id: str, depth: int) -> tuple:
        """Walks on from node_id, depth steps from the anchor; returns
        (a path was found, a node on the current path cut the walk)."""
        if node_id not in steps:
            steps[node_id] = _steps(graph, node_id, spec)
        fruitful = cut = False
        left = max_depth - depth - 1  # steps a walk on from the next node may take
        for edge_id, nxt in steps[node_id]:
            if nxt in visited:
                cut = True
                continue
            if nxt not in arrivals:
                node = graph.nodes[nxt]
                arrivals[nxt] = (_terminal_ok(spec, graph, node, entry),
                                 spec.allowed_node_kinds is None
                                 or node.kind in spec.allowed_node_kinds)
            terminal, passable = arrivals[nxt]
            extend = passable and left > dead.get(nxt, 0)
            if not (terminal or extend):
                continue
            stack_elements.append(edge_id)
            stack_elements.append(nxt)
            if terminal:
                fruitful = True
                if spec.direction == BACKWARD:
                    elements = tuple(reversed(stack_elements))
                else:
                    elements = tuple(stack_elements)
                path = AuditPath(spec.direction, elements)
                found.append(path)
                if extend and stop is not None:
                    extend = not stop(path)
            if extend:
                visited.add(nxt)
                below_found, below_cut = descend(nxt, depth + 1)
                fruitful = fruitful or below_found
                cut = cut or below_cut
                visited.discard(nxt)
            stack_elements.pop()
            stack_elements.pop()
        if not (fruitful or cut):
            dead[node_id] = max_depth - depth
        return fruitful, cut

    descend(anchor, 0)
    found.sort(key=lambda p: (p.depth, p.elements))
    return found


def select_paths(paths) -> list:
    """Of paths from one trace, the deepest (no other given path extends
    them), in their given order.

    Every path of one trace is simple and starts at the same anchor, so one
    path's element set lies strictly inside another's exactly when it is a
    proper prefix of the other, read from the anchor.
    """
    walks = [p.elements[::-1] if p.direction == BACKWARD else p.elements
             for p in paths]
    extended = {walk[:end] for walk in walks for end in range(3, len(walk), 2)}
    return [p for p, walk in zip(paths, walks) if walk not in extended]
