"""Path tracing over the graph, following content flow forward in time.

Each edge kind has a flow orientation (its schema.Flow): most arrows
point the way content moves, access-style arrows (reads_from, selects, the
structural loads) point the other way, and invokes couples its endpoints in
both directions. A forward trace follows flow away from the start node; a
backward trace walks flow in reverse toward provenance.

Time. Along flow order, timestamps never decrease: paths are the temporal
paths of Kempe, Kleinberg & Kumar ("Connectivity and Inference Problems
for Temporal Networks", STOC 2000). A walk carries a time: forward, the
latest timestamp it has passed; backward, the earliest. A runtime node or
a timestamped edge must not break flow order, and then sets the carried
time; a static node or an untimestamped edge passes it on unchanged. A
walk is in a state (node, carried time), and a path never visits a state
twice. A runtime node always carries its own time, so it occurs once; a
static node such as a memory store or a tool may recur at another time.
Nor does a path step straight back over the edge it has just crossed:
invokes couples an action and its tool both ways, and a path from the
tool into the action and straight back would have the one call feed the
tool its own result, doubling the paths through a shared tool with every
session that calls it.

Paths contain at least one edge and at most ``max_depth``, end at a node
the terminal predicate accepts, pass only through allowed node kinds (the
endpoints are exempt), and are stored in flow order: elements[0] is the
most upstream element. For a backward trace that upstream end is the
origin the walk discovered; for a forward trace it is the anchor, and the
downstream terminus is the discovered end.

Counting, not listing. A trace does not list its paths: on a diamond
chain they are Fibonacci-many, and on a long replay with a shared memory
store and tool they multiply with every session. Counting simple paths
is #P-complete in general (Valiant, SIAM J. Comput. 1979), but the
carried time never runs back, so a path can return to a state only while
the time stands still, and only to a state it visited at that instant.
Such cycles lie inside the strongly connected components of the steps
that leave a given time as it is; in the graphs ingestion builds they
are an action and the tool it invokes. The trace therefore walks layers
of keys, one layer per step: a key is a node, the carried time, which
keep-marks the path has met, the nodes of the node's component it
visited since it entered that component at that time, and the edge it
may not step straight back over. Outside such a cycle the visited nodes
are the node alone, so paths that reach one node at one time by
different routes share a key. Paths with the same key at the same depth
have the same continuations, so one pass out over the layers and one
pass back give, for each endpoint, the exact number of kept paths and
the first of them under (depth, elements) order; the elements of all
kept paths; and the number of terminal paths walked. The work grows with
the number of keys times the steps from them, depth included, not with
the number of paths.

Shared across entries. A rule traces each side from every entry with one
spec, and much of a trace does not depend on where it starts. A
TraceContext, made once per (graph, spec) for one rule evaluation, holds
each node's steps, time and passability. It also holds, per terminal
answer key, each node's terminal answer, the same-instant components and,
for traces without keep marks, the moves. That key is the terminal and
the entry's values of the attributes the terminal reads, so entries that
agree on them share one set. This is sound because predicates are pure
functions of the element, the graph and the entry attributes they read,
and the graph does not change during an audit. A move depends on the
entry only through the terminal answer of the node it reaches and, with
keep marks, the marks it meets; a component only through its moves.
Per terminal answer key it also holds each walk key's horizon: how many
more steps the key can take without reaching a terminal. A key's
continuations depend on neither the entry nor the depth, and a forward
walk stops only at a terminal, so a later trace takes no step from a key
whose horizon is at least the steps left to it there. Those are the
"blocked" nodes of Johnson (SIAM J. Comput. 1975), carried across traces:
no path through such a key reaches a terminal, so the result is that of a
fresh trace, but for Trace.keys, which may shrink.
"""

from __future__ import annotations

import bisect
import math

from . import schema
from .graph import AgentBomGraph, instant
from .predicates import Answers
from .record import FrozenRecord, Record
from .schema import Flow, Layer, NodeKind

BACKWARD = "backward"
FORWARD = "forward"


# ===========================================================================
# specs and paths
# ===========================================================================


class PathSpec(Record):
    """What a single trace is allowed to touch and where it may stop."""

    __slots__ = ("direction", "allowed_edge_kinds", "allowed_node_kinds", "terminal",
                 "max_depth", "cross_agent")

    def __init__(self, direction: str, allowed_edge_kinds: frozenset,
                 allowed_node_kinds: frozenset | None = None, terminal: object = None,
                 max_depth: int = 32, cross_agent: bool = False):
        if direction not in (BACKWARD, FORWARD):
            raise ValueError(f"direction must be backward or forward, got {schema.quoted(direction)}")
        self.direction = direction
        self.allowed_edge_kinds = schema.expand_edge_kinds(allowed_edge_kinds)
        if allowed_node_kinds is not None:
            allowed_node_kinds = frozenset(
                k if isinstance(k, NodeKind) else schema.parse_node_kind(k)
                for k in allowed_node_kinds
            )
        self.allowed_node_kinds = allowed_node_kinds
        self.terminal = terminal
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.cross_agent = cross_agent

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


class AuditPath(FrozenRecord):
    """One traced path: alternating node and edge ids in flow order.

    A reported path is the witness for its endpoint: ``count`` is the
    number of kept paths of its trace that end there, itself included.
    """

    __slots__ = ("direction", "elements", "count")

    def __init__(self, direction: str, elements: tuple, count: int = 1):
        _set = object.__setattr__
        _set(self, "direction", direction)
        _set(self, "elements", elements)
        _set(self, "count", count)

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
        doc = {"direction": self.direction, "elements": list(self.elements)}
        if self.count > 1:
            doc["count"] = self.count
        return doc


class Trace:
    """What one trace found.

    ``paths`` holds one witness per endpoint (origin backward, terminus
    forward) in (depth, elements) order, each with its endpoint's count.
    ``scope`` holds every element of every kept path: the witnesses'
    elements in first-seen order, then the others sorted. ``explored`` is
    the number of terminal paths the walk went through, kept or not.
    ``keys`` is the number of keys the walk made, which earlier traces
    through the same context may lower; no report holds it. The size of a
    trace is the number of paths it reports. (A plain class with slots,
    like every record of the package; see ``record``.)
    """

    __slots__ = ("paths", "scope", "explored", "keys")

    def __init__(self, paths: tuple = (), scope: tuple = (), explored: int = 0,
                 keys: int = 0):
        self.paths, self.scope, self.explored = paths, scope, explored
        self.keys = keys

    def __len__(self) -> int:
        return len(self.paths)


# ===========================================================================
# stepping
# ===========================================================================

def _time(stamp):
    """A timestamp's instant(); None for an empty or missing one."""
    return instant(stamp) if stamp else None


_RUNTIME = Layer.RUNTIME  # read once: each read through the enum class costs a call on 3.11


def _node_time(node):
    """Only runtime nodes carry time; a static node passes it on."""
    return _time(node.timestamp) if node.layer is _RUNTIME else None


def _start_node(graph: AgentBomGraph, start: str, direction: str) -> str:
    """An edge start anchors at its source (backward) or target (forward)."""
    if start in graph.edges:
        edge = graph.edges[start]
        return edge.source if direction == BACKWARD else edge.target
    return start


# ===========================================================================
# the trace operation
# ===========================================================================


def trace(graph: AgentBomGraph, start: str, spec: PathSpec, *,
          keep_end=None, keep_marks=(), context=None) -> Trace:
    """Count the paths from start under spec and pick one witness per endpoint.

    A terminal path is kept when ``keep_end`` (an element id -> bool
    callable, None for always) holds on its discovered end and each of
    ``keep_marks`` (element id -> bool callables) holds on at least one of
    its elements. A forward walk does not extend a kept path, so the kept
    forward paths are the nearest. Of the kept backward paths, those that
    another kept path extends are dropped, so the rest are the deepest.
    ``explored`` counts the terminal paths walked before that choice.

    The entry element passed to terminal predicates is the start element
    itself, so predicates may compare against the entry's attributes.
    ``context`` is the TraceContext of (graph, spec) that the traces of
    one rule side share; without one, the trace makes its own. Each node's
    steps are computed once per context, and its terminal answer and
    passability and the same-instant components once per context and
    terminal answer key; each element's marks, and keep_end on each
    terminal node, once per call.
    """
    if not graph.has_element(start):
        raise ValueError(f"no node or edge {schema.quoted(start)} to trace from")
    if context is None:
        context = TraceContext(graph, spec)
    elif context.graph is not graph or context.spec is not spec:
        raise ValueError("the trace context belongs to another graph or spec")
    counting = _Count(context, start, keep_end, keep_marks)
    return counting.settle(*counting.walk())


class TraceContext:
    """What the traces of one spec over one graph share, whatever their
    start (see the module docstring). A rule evaluation makes one per side;
    the keep tests of a trace may read anything of its entry, so what they
    decide stays with the trace."""

    def __init__(self, graph: AgentBomGraph, spec: PathSpec,
                 answers: Answers | None = None):
        self.graph, self.spec = graph, spec
        self.answers = Answers(graph) if answers is None else answers
        self.forward = spec.direction == FORWARD
        self.flows = {  # edge kind -> its flow, for the kinds the spec may cross
            kind: kind.flow for kind in spec.allowed_edge_kinds
            if spec.cross_agent or kind.family is not schema.EdgeFamily.PROPAGATION}
        self.steps = {}   # node id -> (timed steps, untimed steps)
        # terminal answer key (see predicates.Answers.key) -> (node facts,
        # components, moves of traces without keep marks, horizons)
        self.shared = {}

    def terminal_for(self, entry) -> tuple:
        """(node id -> the terminal's answer for entry, the shared tables of
        entry's terminal answer key)."""
        terminal, key = self.spec.terminal, None
        if terminal is None:
            ask = lambda node_id: True  # noqa: E731
        elif hasattr(terminal, "evaluate"):
            ask, key = self.answers.asker(terminal, entry), self.answers.key(terminal, entry)
        else:  # a plain node -> bool callable, which reads nothing of the entry
            nodes = self.graph.nodes
            ask = lambda node_id: bool(terminal(nodes[node_id]))  # noqa: E731
        return ask, self.shared.setdefault(key, ({}, {}, {}, {}))

    # -- time ------------------------------------------------------------------
    #
    # A step that meets a timestamp sets the carried time to the last one it
    # meets, whatever the time before, provided that time does not come after
    # (forward) or before (backward) the first one it meets.

    def later(self, a, b) -> bool:
        return a > b if self.forward else a < b

    def position(self, carried):
        """Where a carried time sorts: the least constraining first."""
        if carried is None:
            return -math.inf
        return carried if self.forward else -carried

    def steps_from(self, node_id) -> tuple:
        """(timed steps, untimed steps) from node_id over the edges the spec
        may cross in its direction, each in (edge id, next node id) order. A
        step holds its edge id, the next node id and the edge a path must
        not step straight back over next (the edge itself if it can be
        crossed both ways, else None); a timed step also the first and the
        last timestamp it meets."""
        if node_id not in self.steps:
            graph, found = self.graph, []
            for edges, along, far_end in ((graph.out_edges(node_id), Flow.WITH, "target"),
                                          (graph.in_edges(node_id), Flow.INV, "source")):
                for edge in edges:
                    flow = self.flows.get(edge.kind)
                    if flow is Flow.BOTH or flow is not None and (flow is along) == self.forward:
                        found.append((edge.edge_id, getattr(edge, far_end), edge, flow))
            found.sort(key=lambda step: step[:2])
            timed, untimed = [], []
            for edge_id, nxt, edge, flow in found:
                stamps = [t for t in (_time(edge.timestamp), _node_time(graph.nodes[nxt]))
                          if t is not None]
                back = edge_id if flow is Flow.BOTH else None
                if not stamps:
                    untimed.append((edge_id, nxt, back))
                elif not self.later(stamps[0], stamps[-1]):
                    timed.append((edge_id, nxt, back, stamps[0], stamps[-1]))
            self.steps[node_id] = timed, untimed
        return self.steps[node_id]


class _Key:
    """What the paths that share one key at one depth have in common.

    A key is (node, carried time, marks met, the nodes of the node's
    component visited since the path entered it at that time or None when
    that is the node alone, the edge the path may not step straight back
    over or None): two paths with the same key at the same depth have the
    same continuations.
    """

    __slots__ = ("paths", "first", "edge", "rank", "onward", "node",
                 "kept", "extended", "live", "horizon", "near")

    def __init__(self, paths, first, edge, node):
        self.paths = paths    # the number of paths to the key
        self.first = first    # the _Key the first of them comes from
        self.edge = edge      # the edge between the two
        self.rank = 0         # its place in its layer, by its first path's elements
        self.onward = []      # (edge id, _Key) steps taken one key at a time
        self.node = node
        self.kept = False     # its paths are kept terminal paths
        self.extended = False  # a kept path extends its paths
        self.live = False     # its paths lie on reported paths
        self.horizon = 0      # steps it can take short of a terminal: see settle


class _Count:
    """One trace: layers of keys walked out from the anchor, one per step,
    then settled from the deepest layer back."""

    def __init__(self, context, start, keep_end, keep_marks):
        self.graph, self.spec = context.graph, context.spec
        self.entry = self.graph.element(start)
        self.anchor = _start_node(self.graph, start, self.spec.direction)
        self.forward = context.forward
        self.later, self.position = context.later, context.position
        self.steps_from = context.steps_from
        self.keep_end, self.keep_marks = keep_end, keep_marks
        self.full = (1 << len(keep_marks)) - 1
        self.terminal, (facts, components, moves, horizons) = context.terminal_for(self.entry)
        self.node_facts = facts       # node id -> (terminal, passable, time)
        self.components = components  # (node id, carried time) -> its component or None
        # (node id, carried time, instant only) -> moves; without keep marks no
        # move meets a mark, so they are those of every trace that shares facts
        self.moves = {} if keep_marks else moves
        self.horizons = horizons      # walk key -> its horizon (see settle)
        self.marks = {}       # element id -> marks
        self.kept_ends = {}   # terminal node id -> whether keep_end holds

    # -- per element, once ---------------------------------------------------

    def marks_of(self, element_id) -> int:
        marks = self.marks.get(element_id)
        if marks is None:
            marks = self.marks[element_id] = sum(
                1 << i for i, mark in enumerate(self.keep_marks) if mark(element_id))
        return marks

    def facts(self, node_id) -> tuple:
        """(terminal, passable, time) of node_id."""
        facts = self.node_facts.get(node_id)
        if facts is None:
            node, kinds = self.graph.nodes[node_id], self.spec.allowed_node_kinds
            facts = self.node_facts[node_id] = (
                self.terminal(node_id),
                kinds is None or node.kind in kinds,
                _node_time(node),
            )
        return facts

    def kept_end(self, node_id) -> bool:
        """Whether keep_end holds on node_id, a terminal node."""
        kept = self.kept_ends.get(node_id)
        if kept is None:
            kept = self.kept_ends[node_id] = (self.keep_end is None
                                              or bool(self.keep_end(node_id)))
        return kept

    def arrival(self, edge_id, nxt):
        """The marks met on stepping over edge_id into nxt, or None if no
        path ends or passes there."""
        terminal, passable, _ = self.facts(nxt)
        if not (terminal or passable):
            return None
        if self.keep_marks:
            return self.marks_of(nxt) | self.marks_of(edge_id)
        return 0

    def moves_of(self, node_id, carried, instant_only) -> list:
        """(edge id, next node id, back, time after, marks) of the steps
        open at that time, in edge order; with instant_only, only those that
        leave the time as it is."""
        state = (node_id, carried, instant_only)
        if state not in self.moves:
            timed, untimed = self.steps_from(node_id)
            open_steps = [(edge_id, nxt, back, carried) for edge_id, nxt, back in untimed]
            open_steps += [
                (edge_id, nxt, back, last) for edge_id, nxt, back, first, last in timed
                if (first == last == carried if instant_only
                    else carried is None or not self.later(carried, first))]
            self.moves[state] = sorted(
                (edge_id, nxt, back, now, marks) for edge_id, nxt, back, now in open_steps
                if (marks := self.arrival(edge_id, nxt)) is not None)
        return self.moves[state]

    def component(self, node_id, carried):
        """The nodes that node_id shares a cycle with among the steps that
        leave the time at carried, or None when there are none: only such
        a node can recur on a path at one time. Tarjan's algorithm (SIAM J.
        Comput. 1972), run from node_id over what those steps reach."""
        if (node_id, carried) in self.components:
            return self.components[node_id, carried]
        index, low, stack = {node_id: 0}, {node_id: 0}, [node_id]
        work = [(node_id, iter(self.moves_of(node_id, carried, True)))]
        while work:
            node, moves = work[-1]
            for _, nxt, _, _, _ in moves:
                if (nxt, carried) in self.components:
                    continue  # in a component already settled
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(self.moves_of(nxt, carried, True))))
                    break
                low[node] = min(low[node], index[nxt])  # nxt is on the stack
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    at = stack.index(node)
                    members = stack[at:]
                    del stack[at:]
                    shared = frozenset(members) if len(members) > 1 else None
                    for member in members:
                        self.components[member, carried] = shared
        return self.components[node_id, carried]

    # -- walking out -----------------------------------------------------------

    def arrive(self, layer, after, paths, first, edge_id) -> _Key:
        into = layer.get(after)
        if into is None:
            into = layer[after] = _Key(paths, first, edge_id, after[0])
        else:
            into.paths += paths
            if ((first.rank, edge_id) < (into.first.rank, into.edge) if self.forward
                    else (edge_id, first.rank) < (into.edge, into.first.rank)):
                into.first, into.edge = first, edge_id
        return into

    def step_on(self, layer, key, record, moves) -> None:
        """Take moves from one key; a move at the same instant must not
        return to a node visited at that instant, nor straight back over
        the edge the key was reached by."""
        node_id, carried, met, run, no_return = key
        for edge_id, nxt, back, now, marks in moves:
            if edge_id == no_return:
                continue
            if now != carried:
                run_after = None
            elif nxt == node_id or run is not None and nxt in run:
                continue
            elif (shared := self.component(nxt, now)) is None or node_id not in shared:
                run_after = None  # the path cannot come back to nxt at this time
            else:
                run_after = (run or frozenset((node_id,))) | {nxt}
            into = self.arrive(layer, (nxt, now, met | marks, run_after, back),
                               record.paths, record, edge_id)
            record.onward.append((edge_id, into))

    def share(self, layer, node_id, met, members) -> list:
        """Take the timed steps from keys that differ only in time and
        visited nodes. Such a step is open to the keys whose time sorts
        before a cut and moves them all to one key, so it is taken once for
        all of them: a static node such as a shared tool, reached at many
        times and stepping to many timed neighbours, costs their sum, not
        their product. Returns the (edge id, cut, _Key) steps taken; members
        is left sorted by time."""
        members.sort(key=lambda member: self.position(member[0][1]))
        cuts = [self.position(key[1]) for key, _ in members]
        totals, firsts = [0], [None]  # paths and first record of each prefix
        for _, record in members:
            totals.append(totals[-1] + record.paths)
            first = firsts[-1]
            firsts.append(record if first is None or record.rank < first.rank else first)
        taken = []
        # stepping straight back over the edge a key was reached by leaves
        # the time as it is, so no shared step is one
        for edge_id, nxt, back, first, last in self.steps_from(node_id)[0]:
            bound = self.position(first)
            cut = (bisect.bisect_right(cuts, bound) if first != last
                   else bisect.bisect_left(cuts, bound))
            if cut and (marks := self.arrival(edge_id, nxt)) is not None:
                into = self.arrive(layer, (nxt, last, met | marks, None, back),
                                   totals[cut], firsts[cut], edge_id)
                taken.append((edge_id, cut, into))
        return taken

    def walk(self) -> tuple:
        """(layers of {key: _Key}, per layer the shared steps taken from it
        as (members, steps))."""
        anchor, facts, full, horizons = self.anchor, self.node_facts, self.full, self.horizons
        first = (anchor, self.facts(anchor)[2], self.marks_of(anchor), None, None)
        layers, shared = [{first: _Key(1, None, None, anchor)}], []
        for depth in range(self.spec.max_depth):
            layer, moved, groups, reach = {}, [], {}, self.spec.max_depth - depth
            for key, record in layers[-1].items():
                node_id, carried, met, _, _ = key
                terminal, passable, time = facts[node_id]
                if depth and (not passable or self.forward and terminal and met == full
                              and self.kept_end(node_id)):
                    continue
                horizon = horizons.get(key, 0)
                if horizon >= reach:  # no terminal within the steps left
                    record.horizon = horizon
                    continue
                record.horizon = math.inf
                if time is None:  # only a node without a time of its own varies in time
                    groups.setdefault((node_id, met), []).append((key, record))
                else:
                    self.step_on(layer, key, record, self.moves_of(node_id, carried, False))
            for (node_id, met), members in groups.items():
                for key, record in members:
                    self.step_on(layer, key, record, self.moves_of(node_id, key[1], True))
                moved.append((members, self.share(layer, node_id, met, members)))
            if not layer:
                break
            if self.forward:  # flow order reads from the anchor
                order = sorted(layer.values(), key=lambda k: (k.first.rank, k.edge))
            else:             # flow order ends at the anchor: the new node comes first
                order = sorted(layer.values(), key=lambda k: (k.node, k.edge, k.first.rank))
            for rank, record in enumerate(order):
                record.rank = rank
            layers.append(layer)
            shared.append(moved)
        return layers, shared

    # -- settling back ---------------------------------------------------------

    def settle(self, layers, shared) -> Trace:
        """From the deepest layer back: is a key kept, does a kept path
        extend it, does it lie on a reported path; then the witnesses. A
        stepped key no kept path runs through records its horizon: the
        least ``near`` of the keys it steps to, infinite if none, where a
        group's members take the least over all its shared steps. A key's
        ``near`` is 0 if it is terminal or a kept path runs through it, else
        its horizon plus one. A skipped key has its recorded horizon, and a
        key the walk did not step from for another reason has horizon 0."""
        explored, facts, full, horizons = 0, self.node_facts, self.full, self.horizons
        ends = {}  # endpoint -> [paths, ((depth, rank), _Key) of its first]
        scope = set()
        for depth in range(len(layers) - 1, -1, -1):
            for members, taken in shared[depth] if depth < len(shared) else ():
                extended = live = 0
                for edge_id, cut, into in taken:
                    if into.kept or into.extended:
                        extended = max(extended, cut)
                    if into.live:
                        live = max(live, cut)
                        scope.add(edge_id)
                for index, (_, record) in enumerate(members[:max(extended, live)]):
                    record.extended = record.extended or index < extended
                    record.live = record.live or index < live
                near = min((into.near for _, _, into in taken), default=math.inf)
                for _, record in members:
                    record.horizon = near
            for key, record in layers[depth].items():
                node_id, _, met, _, _ = key
                terminal = depth > 0 and facts[node_id][0]
                for edge_id, after in record.onward:
                    record.extended = record.extended or after.kept or after.extended
                    if after.live:
                        record.live = True
                        scope.add(edge_id)
                record.kept = terminal and met == full and self.kept_end(node_id)
                if terminal:
                    explored += record.paths
                if record.kept and (self.forward or not record.extended):
                    record.live = True
                    end = ends.setdefault(node_id, [0, ((depth, record.rank), record)])
                    end[0] += record.paths
                    end[1] = min(end[1], ((depth, record.rank), record),
                                 key=lambda pair: pair[0])
                if record.live:
                    scope.add(node_id)
                if record.live or record.extended:  # a kept path runs through it
                    record.near = 0
                    continue
                horizon = record.horizon
                for _, after in record.onward:
                    if after.near < horizon:
                        horizon = after.near
                if horizon > horizons.get(key, 0):
                    horizons[key] = horizon
                record.near = 0 if terminal else horizon + 1

        witnesses = []
        for node_id, (count, (order, record)) in ends.items():
            walked = [node_id]  # from the endpoint back to the anchor
            while record.first is not None:
                walked += (record.edge, record.first.node)
                record = record.first
            elements = tuple(reversed(walked)) if self.forward else tuple(walked)
            witnesses.append((order, AuditPath(self.spec.direction, elements, count)))
        paths = tuple(path for _, path in sorted(witnesses, key=lambda pair: pair[0]))
        first_seen = dict.fromkeys(e for path in paths for e in path.elements)
        rest = sorted(scope.difference(first_seen))
        return Trace(paths, tuple(first_seen) + tuple(rest), explored, sum(map(len, layers)))
