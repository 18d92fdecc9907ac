"""The attributed two-layer graph and its construction-time checks.

A graph is built append-only: agents first, then nodes, then edges. Every
check that validate() performs on a whole graph is also enforced while
inserting, and more strictly (references must resolve when a node goes in,
and nothing is removed later), so a graph built through add_node / add_edge
needs no validate() afterwards. validate() is the gate for deserialized
documents, which skip the insertion checks: from_dict rejects a malformed
document outright, and validate() reports every broken invariant of a
well-formed one. Neither inserting nor loading builds an adjacency index:
the first query does, and an append drops it (see AgentBomGraph).

from_dict and from_json share one loader, which keeps one string object
per repeated agent or trace id, and names an edge's endpoints by its nodes'
own id objects. from_json decodes text in to_json's layout a slice of each
element array at a time, converting each slice before it decodes the next,
so no more than a slice of the document is ever decoded at once. Any other
text, or any text on which that raises, is decoded whole, so every graph
and every error is the whole document's. Either way the documents are
from_json's own: the loader drops each one as soon as its element exists,
and shares equal attribute keys and string values as well. from_dict hands
the loader copies of its lists and leaves its document, attribute dicts
included, as it was.

Insertion and validate() share one check per element class. Each reads
the element's kind, which carries its layer or its family and endpoint
kinds, and its checks: the (predicate, message) pair of each attribute key
the kind allows. Attributes are tested inline, and worded only once a key
fails; the loop tests a value under a text key (check schema.STRING_CHECK)
itself, so a clean element costs a lookup per attribute and one predicate
call per other one. Its references are walked only when it carries a
reference key. A timestamp is read by instant(), as every stamp in the
program is. instant() keeps each text it has read in a plain dict, _STAMPS,
emptied whole once it holds 65,536, and a check takes a string stamp found
there as read, without a call. An id, agent id, trace id, role or policy
boundary that is not a string is a field_type problem, judged by the
document's field table and worded as on loading a document.

to_json writes each element's text straight from its fields, with no
to_dict() copy, and joins the document once; each kind's and registered
attribute key's quoted text comes from a table made at import, and a plain
string, or a list of them, is quoted inline. The bytes are those of
dump_json(to_dict()). digest() hashes the compact, key-sorted text of
to_dict() a batch of elements at a time, so neither a copy of the graph nor
that text is ever whole. It writes each element's text from its fields as
to_json does, in the compact layout: kinds from the same table, plain
strings quoted inline, and only attribute dicts and other field values
through _ENCODE, the C encoder of json.dumps made once at import. That
encoder does not look for cycles: an attribute value that contains itself
runs into the recursion limit, which digest() reports as ValueError. Each
part it returns is joined, as the C encoder of 3.10 and 3.11 returns a long
text in several. digest() imports hashlib on its first call: building a
graph, writing a scenario or exporting DOT never hash. The bulk conversions
(trace parsing and assembly in ingestion, and to_json, from_json and digest
here) run with the cycle collector paused, since none of them makes a
reference cycle, and hand their survivors to the oldest generation, so that
resuming the collector does not walk them.
"""

from __future__ import annotations

import gc
import json
from collections import namedtuple
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote

from . import schema
from .errors import (
    AttributeSchemaError,
    DanglingEndpointError,
    DuplicateIdError,
    EndpointKindError,
    FrozenGraphError,
    GraphDocumentError,
    GraphError,
    MissingTraceIdError,
    UnknownAgentError,
    UnknownKindError,
)
from .record import FRESH, FrozenRecord, Record
from .schema import (EDGE_KIND_OF_NAME, NODE_KIND_OF_NAME, EdgeFamily, EdgeKind, Layer, NodeKind,
                     quoted)

# ===========================================================================
# helpers
# ===========================================================================


def parse_instant(value: str) -> datetime:
    """Parse an ISO-8601 instant; accepts a trailing Z on Python 3.10."""
    text = value
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


# instant()'s memo, text -> instant; emptied when a new text finds it full
_STAMPS: dict = {}
_STAMPS_BOUND = 1 << 16


def instant(text: str) -> int:
    """A timestamp as whole microseconds since the epoch; ValueError for
    text parse_instant cannot read.

    Every reader of a stamp in the program asks here, and each text read is
    kept in the plain dict _STAMPS, so a text is parsed once until the memo
    is emptied: that happens, whole, when a new text would be kept while it
    holds _STAMPS_BOUND (65,536) texts. Only strings are kept: no other
    value parses, and the element checks test a stamp's type, and look in
    the memo, before they ask.
    """
    try:
        return _STAMPS[text]
    except KeyError:
        pass
    stamp = (parse_instant(text) - _EPOCH) // _MICROSECOND
    if len(_STAMPS) >= _STAMPS_BOUND:
        _STAMPS.clear()
    _STAMPS[text] = stamp
    return stamp


def _is_instant(text) -> bool:
    """Whether ``text`` is a string instant() reads."""
    if not isinstance(text, str):
        return False
    try:
        instant(text)
    except ValueError:
        return False
    return True


def _is_uri(text: str) -> bool:
    return "://" in text


@contextmanager
def _collector_paused():
    """Keep CPython's cycle collector out of one bulk conversion: parsing a
    trace, assembling a graph, and turning a graph into its JSON document or
    digest and back.

    Such a conversion allocates a few containers per event or element
    (about a hundred thousand for a 12k-node graph), none of them in a
    reference cycle, and the allocation count alone sets off collections
    that walk them (and, in a full collection, every other live object) to
    find nothing. The collector's prior state is restored on the way out, so
    a caller that had it off keeps it off. An audit is not paused: its
    traversal records do form cycles.

    The conversion's survivors would still be young when the collector
    resumes, and the next allocation would set off a walk of all of them.
    So, before resuming, every tracked object is moved to the oldest
    generation by gc.freeze() and gc.unfreeze(), which a full collection
    still walks. gc.unfreeze() releases every frozen object, so that is done
    only at a freeze count in _UNFROZEN. Objects a caller freezes after
    import stay frozen.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() in _UNFROZEN:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


# The freeze counts at which no caller holds frozen objects: 0, as a handoff
# leaves it, and the count at import. Objects frozen before import count as
# the interpreter's: a fresh 3.12.1 holds 375, and each full collection
# freezes them again.
_UNFROZEN = frozenset({0, gc.get_freeze_count()})


# ===========================================================================
# elements
# ===========================================================================


class AgentDescriptor(Record):
    """Registry entry for one agent taking part in the execution."""

    __slots__ = ("agent_id", "role", "policy_boundary")

    def __init__(self, agent_id: str, role: str = "", policy_boundary: str = ""):
        self.agent_id, self.role, self.policy_boundary = agent_id, role, policy_boundary

    def to_dict(self) -> dict:
        return {"agent_id": self.agent_id, "role": self.role,
                "policy_boundary": self.policy_boundary}

    @classmethod
    def from_dict(cls, doc: dict) -> "AgentDescriptor":
        schema.check_fields(doc, schema.GRAPH_AGENT, "agent", GraphDocumentError)
        # the table names exactly these fields; a null one takes its default
        return cls(**{key: value for key, value in doc.items() if value is not None})


class Node(Record):
    """One graph node. Runtime nodes carry trace metadata, static ones must not."""

    __slots__ = ("node_id", "kind", "agent_id", "trace_id", "timestamp", "attributes")

    def __init__(self, node_id: str, kind: NodeKind, agent_id: str | None = None,
                 trace_id: str | None = None, timestamp: str | None = None,
                 attributes: dict = FRESH):
        self.node_id = node_id
        self.kind = kind
        self.agent_id = agent_id
        self.trace_id = trace_id
        self.timestamp = timestamp
        self.attributes = {} if attributes is FRESH else attributes

    @property
    def layer(self) -> Layer:
        return self.kind.layer

    def attr(self, key: str, default=None):
        return self.attributes.get(key, default)

    def to_dict(self) -> dict:
        doc = {"node_id": self.node_id, "kind": self.kind.value}
        if self.agent_id is not None:
            doc["agent_id"] = self.agent_id
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.timestamp is not None:
            doc["timestamp"] = self.timestamp
        doc["attributes"] = dict(self.attributes)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Node":
        # the table names exactly these fields, and a null one is None anyway;
        # the node keeps the document's attributes object. A dict that the
        # constructor takes, with the table's types, passes check_fields,
        # which is left to word what is wrong with any other document.
        try:
            node = cls(**doc) if type(doc) is dict else None
        except TypeError:
            node = None
        if node is None or not (type(node.node_id) is str and type(node.kind) is str
                                and type(node.agent_id) in _TEXT_OR_NONE
                                and type(node.trace_id) in _TEXT_OR_NONE
                                and type(node.timestamp) in _TEXT_OR_NONE
                                and type(node.attributes) is dict):
            schema.check_fields(doc, schema.GRAPH_NODE, "node", GraphDocumentError)
            node = cls(**doc)
        node.kind = NODE_KIND_OF_NAME.get(node.kind) or schema.parse_node_kind(node.kind)
        return node


class Edge(Record):
    """One directed, kind-tagged edge between two node ids."""

    __slots__ = ("edge_id", "kind", "source", "target", "timestamp", "attributes")

    def __init__(self, edge_id: str, kind: EdgeKind, source: str, target: str,
                 timestamp: str | None = None, attributes: dict = FRESH):
        self.edge_id = edge_id
        self.kind = kind
        self.source = source
        self.target = target
        self.timestamp = timestamp
        self.attributes = {} if attributes is FRESH else attributes

    def attr(self, key: str, default=None):
        return self.attributes.get(key, default)

    def to_dict(self) -> dict:
        doc = {"edge_id": self.edge_id, "kind": self.kind.value,
               "source": self.source, "target": self.target}
        if self.timestamp is not None:
            doc["timestamp"] = self.timestamp
        doc["attributes"] = dict(self.attributes)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Edge":
        try:  # as Node.from_dict
            edge = cls(**doc) if type(doc) is dict else None
        except TypeError:
            edge = None
        if edge is None or not (type(edge.edge_id) is str and type(edge.kind) is str
                                and type(edge.source) is str and type(edge.target) is str
                                and type(edge.timestamp) in _TEXT_OR_NONE
                                and type(edge.attributes) is dict):
            schema.check_fields(doc, schema.GRAPH_EDGE, "edge", GraphDocumentError)
            edge = cls(**doc)
        edge.kind = EDGE_KIND_OF_NAME.get(edge.kind) or schema.parse_edge_kind(edge.kind)
        return edge


class Violation(FrozenRecord):
    """One violated invariant reported by validate()."""

    __slots__ = ("code", "element_id", "message")

    def __init__(self, code: str, element_id: str, message: str):
        _set = object.__setattr__
        _set(self, "code", code)
        _set(self, "element_id", element_id)
        _set(self, "message", message)


# A violation code outranks none; insertion raises the error of the first
# violation's code.
_ERROR_OF_CODE = {
    "field_type": GraphDocumentError,
    "empty_id": GraphError,
    "duplicate_id": DuplicateIdError,
    "unknown_kind": UnknownKindError,
    "attribute_schema": AttributeSchemaError,
    "layer_metadata": MissingTraceIdError,
    "unknown_agent": UnknownAgentError,
    "dangling_endpoint": DanglingEndpointError,
    "endpoint_kind": EndpointKindError,
    "cross_agent": EndpointKindError,
    "unresolved_reference": AttributeSchemaError,
}

_FROZEN = "graph is frozen; no further appends allowed"


def _raise_first(violations: list) -> None:
    raise _ERROR_OF_CODE[violations[0].code](violations[0].message)


# The attribute keys whose values name nodes; a node carrying none of them
# has no reference to resolve.
_REFERENCE_KEYS = frozenset((*schema.REFERENCE_LIST_KEYS, "source"))


_TEXT_OR_NONE = (str, type(None))
# the members the element checks compare kinds with, read once: on 3.11 each
# read through the enum class, such as Layer.RUNTIME, costs a Python call
_RUNTIME, _STATIC, _PROPAGATION = Layer.RUNTIME, Layer.STATIC, EdgeFamily.PROPAGATION
# a text key's check, which the attribute loops compare by identity
_STRING_CHECK = schema.STRING_CHECK


def _field_type_violations(what: str, element, table, keys: tuple, out: list,
                           none_is_absent=True) -> None:
    """Append a field_type violation per listed field of ``element`` (the
    first is its id) that its document table would not load. None stands
    for an absent field where the table lets null, unless ``none_is_absent``
    is false: an agent's fields hold strings, as its document writes every
    field."""
    for key in keys:
        value = getattr(element, key)
        json_type = table.fields[key][0]
        if type(value) not in (table.accepts[key] if none_is_absent else json_type.types):
            out.append(Violation("field_type", getattr(element, keys[0]),
                                 schema.mistyped(what, key, json_type, value)))


def _agent_violations(descriptor: AgentDescriptor, out: list) -> None:
    _field_type_violations("agent", descriptor, schema.GRAPH_AGENT,
                           ("agent_id", "role", "policy_boundary"), out, none_is_absent=False)


def _attribute_violations(element_id: str, attributes: dict, checks: dict, out: list) -> None:
    """Append the attribute violations in key order, a key that is not a
    string by its text: each value that fails its key's predicate in
    ``checks``, and each key not there. The element checks call this once
    a key has failed."""
    if not isinstance(attributes, dict):
        out.append(Violation("attribute_schema", element_id, f"{quoted(element_id)} attributes "
                             f"must be an object, got {quoted(attributes)}"))
        return
    failing = [key for key, value in attributes.items()
               if not (key in checks and checks[key][0](value))]
    for key in sorted(failing, key=str):
        message = (f"{quoted(element_id)} attribute {quoted(key)} {checks[key][1]}"
                   if key in checks
                   else f"{quoted(element_id)} carries unregistered key {quoted(key)}")
        out.append(Violation("attribute_schema", element_id, message))


# ===========================================================================
# the graph
# ===========================================================================

# a graph's edge ids by source and by target, and its element ids by kind
_Index = namedtuple("_Index", ("out", "into", "by_edge_kind", "by_node_kind"))


class AgentBomGraph:
    """Append-only two-layer graph. Its index of edges by endpoint and of
    elements by kind is built, in insertion order, by the first query that
    finds none; each append drops it."""

    def __init__(self):
        self.agents: dict[str, AgentDescriptor] = {}
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        self._index: _Index | None = None
        self._frozen = False

    # ------------------------------------------------------------------
    # append API
    # ------------------------------------------------------------------

    def add_agent(self, descriptor: AgentDescriptor) -> str:
        if self._frozen:
            raise FrozenGraphError(_FROZEN)
        violations = []
        _agent_violations(descriptor, violations)
        if violations:
            _raise_first(violations)
        if descriptor.agent_id in self.agents:
            raise DuplicateIdError(f"agent {quoted(descriptor.agent_id)} already registered")
        self.agents[descriptor.agent_id] = descriptor
        return descriptor.agent_id

    def add_node(self, node: Node) -> str:
        if self._frozen:
            raise FrozenGraphError(_FROZEN)
        violations = []
        self._node_violations(node, violations, check_duplicate=True)
        if violations:
            _raise_first(violations)
        self.nodes[node.node_id] = node
        self._index = None
        return node.node_id

    def add_edge(self, edge: Edge) -> str:
        if self._frozen:
            raise FrozenGraphError(_FROZEN)
        violations = []
        self._edge_violations(edge, violations, check_duplicate=True)
        if violations:
            _raise_first(violations)
        self.edges[edge.edge_id] = edge
        self._index = None
        return edge.edge_id

    def freeze(self) -> None:
        """Close the graph to further appends."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def _indexed(self) -> _Index:
        if self._index is None:
            out, into = {}, {}
            by_edge_kind = {kind: [] for kind in EdgeKind}
            by_node_kind = {kind: [] for kind in NodeKind}
            for node in self.nodes.values():
                by_node_kind[node.kind].append(node.node_id)
            for edge in self.edges.values():
                eid = edge.edge_id
                out.setdefault(edge.source, []).append(eid)
                into.setdefault(edge.target, []).append(eid)
                by_edge_kind[edge.kind].append(eid)
            self._index = _Index(out, into, by_edge_kind, by_node_kind)
        return self._index

    def element(self, element_id: str):
        """Resolve an element id to its node or edge."""
        if element_id in self.nodes:
            return self.nodes[element_id]
        return self.edges[element_id]

    def has_element(self, element_id: str) -> bool:
        return element_id in self.nodes or element_id in self.edges

    def out_edges(self, node_id: str, kinds=None) -> list[Edge]:
        edges = [self.edges[e] for e in (self._index or self._indexed()).out.get(node_id, ())]
        if kinds is not None:
            edges = [e for e in edges if e.kind in kinds]
        return edges

    def in_edges(self, node_id: str, kinds=None) -> list[Edge]:
        edges = [self.edges[e] for e in (self._index or self._indexed()).into.get(node_id, ())]
        if kinds is not None:
            edges = [e for e in edges if e.kind in kinds]
        return edges

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [self.nodes[n] for n in (self._index or self._indexed()).by_node_kind[kind]]

    def edges_of_kind(self, kind: EdgeKind) -> list[Edge]:
        return [self.edges[e] for e in (self._index or self._indexed()).by_edge_kind[kind]]

    def layer_counts(self) -> dict[Layer, int]:
        counts = {layer: 0 for layer in Layer}
        for node in self.nodes.values():
            counts[node.layer] += 1
        return counts

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Re-check every graph invariant; returns all violations found."""
        violations: list[Violation] = []
        agents, nodes, edges = self.agents, self.nodes, self.edges
        for agent_id in sorted(agents):
            _agent_violations(agents[agent_id], violations)
        check = self._node_violations
        for node_id in sorted(nodes):
            check(nodes[node_id], violations)
        check = self._edge_violations
        for edge_id in sorted(edges):
            check(edges[edge_id], violations)
        return violations

    def _node_violations(self, node: Node, out: list, check_duplicate: bool = False) -> None:
        """Append the node's violations to ``out``."""
        nid = node.node_id
        # a fast pre-test of what the table check reports
        if not (type(nid) is str and type(node.agent_id) in _TEXT_OR_NONE
                and type(node.trace_id) in _TEXT_OR_NONE):
            _field_type_violations("node", node, schema.GRAPH_NODE,
                                   ("node_id", "agent_id", "trace_id"), out)
            return
        if not nid:
            out.append(Violation("empty_id", nid, "a node id must not be empty"))
            return
        if check_duplicate and (nid in self.nodes or nid in self.edges):
            out.append(Violation("duplicate_id", nid, f"element id {quoted(nid)} already in use"))
            return
        if not isinstance(node.kind, NodeKind):
            out.append(Violation("unknown_kind", nid, f"node {quoted(nid)} kind is not a NodeKind"))
            return
        kind = node.kind
        if kind.layer is _RUNTIME:
            if not node.trace_id or not node.timestamp:
                out.append(Violation("layer_metadata", nid, f"runtime node {quoted(nid)} "
                                     "requires trace_id and timestamp"))
            if not node.agent_id:
                out.append(Violation("layer_metadata", nid,
                                     f"runtime node {quoted(nid)} requires agent_id"))
            elif node.agent_id not in self.agents:
                out.append(Violation("unknown_agent", nid, f"runtime node {quoted(nid)} names "
                                     f"unregistered agent {quoted(node.agent_id)}"))
        elif kind.layer is _STATIC and node.trace_id is not None:
            out.append(Violation("layer_metadata", nid,
                                 f"static node {quoted(nid)} must not carry trace_id"))
        stamp = node.timestamp
        if (stamp is not None and not (type(stamp) is str and stamp in _STAMPS)
                and not _is_instant(stamp)):
            out.append(Violation("attribute_schema", nid, f"node {quoted(nid)} timestamp "
                                 f"{quoted(stamp)} is not ISO-8601"))
        attributes, checks = node.attributes, kind.checks
        if type(attributes) is not dict:
            _attribute_violations(nid, attributes, checks, out)
        else:
            for key, value in attributes.items():
                check = checks.get(key)
                if check is _STRING_CHECK:
                    if type(value) is str or isinstance(value, str):
                        continue
                elif check is not None and check[0](value):
                    continue
                _attribute_violations(nid, attributes, checks, out)
                break
        if isinstance(attributes, dict) and not _REFERENCE_KEYS.isdisjoint(attributes):
            self._reference_violations(nid, attributes, out)

    def _edge_violations(self, edge: Edge, out: list, check_duplicate: bool = False) -> None:
        """Append the edge's violations to ``out``, as _node_violations."""
        eid = edge.edge_id
        if not (type(eid) is str and type(edge.source) is str and type(edge.target) is str):
            _field_type_violations("edge", edge, schema.GRAPH_EDGE,
                                   ("edge_id", "source", "target"), out)
            return
        if not eid:
            out.append(Violation("empty_id", eid, "an edge id must not be empty"))
            return
        if check_duplicate and (eid in self.nodes or eid in self.edges):
            out.append(Violation("duplicate_id", eid, f"element id {quoted(eid)} already in use"))
            return
        if not isinstance(edge.kind, EdgeKind):
            out.append(Violation("unknown_kind", eid,
                                 f"edge {quoted(eid)} kind is not an EdgeKind"))
            return
        kind = edge.kind
        src = self.nodes.get(edge.source)
        tgt = self.nodes.get(edge.target)
        if src is None or tgt is None:
            missing = edge.source if src is None else edge.target
            out.append(Violation("dangling_endpoint", eid,
                                 f"edge {quoted(eid)} endpoint {quoted(missing)} "
                                 "is not in the graph"))
            return
        if type(src.kind) is not NodeKind or type(tgt.kind) is not NodeKind:
            return  # not judged: the endpoint reports its own unknown_kind
        if src.kind not in kind.sources or tgt.kind not in kind.targets:
            out.append(Violation("endpoint_kind", eid, f"edge kind {kind.value} does "
                                 f"not permit {src.kind.value} -> {tgt.kind.value}"))
            return
        # an endpoint whose attributes are not a map carries no marker (and
        # is reported itself)
        if (kind.family is _PROPAGATION
                and src.agent_id is not None and src.agent_id == tgt.agent_id
                and not any(isinstance(n.attributes, dict) and "shared_state" in n.attributes
                            for n in (src, tgt))):
            out.append(Violation("cross_agent", eid, f"propagation edge {quoted(eid)} joins two "
                                 f"elements of agent {quoted(src.agent_id)} with no "
                                 "shared-object marker"))
        attributes, checks = edge.attributes, kind.checks
        if type(attributes) is not dict:
            _attribute_violations(eid, attributes, checks, out)
        else:
            for key, value in attributes.items():
                check = checks.get(key)
                if check is _STRING_CHECK:
                    if type(value) is str or isinstance(value, str):
                        continue
                elif check is not None and check[0](value):
                    continue
                _attribute_violations(eid, attributes, checks, out)
                break
        stamp = edge.timestamp
        if (stamp is not None and not (type(stamp) is str and stamp in _STAMPS)
                and not _is_instant(stamp)):
            out.append(Violation("attribute_schema", eid, f"edge {quoted(eid)} timestamp "
                                 f"{quoted(stamp)} is not ISO-8601"))

    def _reference_violations(self, element_id, attributes: dict, out: list) -> None:
        """Append the references that name no node; an element may name
        itself."""
        for key in schema.REFERENCE_LIST_KEYS:
            refs = attributes.get(key)
            if not isinstance(refs, list):
                continue  # absent, or already reported as a type problem
            for ref in refs:
                if not isinstance(ref, str):
                    continue  # already reported as a type problem
                if ref != element_id and ref not in self.nodes:
                    out.append(Violation("unresolved_reference", element_id,
                                         f"{quoted(element_id)} {key} entry {quoted(ref)} "
                                         "does not resolve"))
        source = attributes.get("source")
        if (isinstance(source, str) and source and not _is_uri(source)
                and source != element_id and source not in self.nodes):
            out.append(Violation("unresolved_reference", element_id,
                                 f"{quoted(element_id)} source {quoted(source)} does not resolve"))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "agents": [self.agents[a].to_dict() for a in sorted(self.agents)],
            "nodes": [self.nodes[n].to_dict() for n in sorted(self.nodes)],
            "edges": [self.edges[e].to_dict() for e in sorted(self.edges)],
        }

    def to_json(self) -> str:
        """``dump_json(self.to_dict())``, written straight from the elements.

        Each node and edge becomes one text whose field keys are constant
        and sorted; field values, attributes and agents take dump_json's
        paths. The document is put together by one final join.
        """
        with _collector_paused():
            agents = [self.agents[a].to_dict() for a in sorted(self.agents)]
            nodes, edges = self.nodes, self.edges
            return "".join([
                _HEAD, _json_text(agents, "\n  "), _AFTER[0],
                *_element_array([_edge_text(edges[e]) for e in sorted(edges)]),
                _AFTER[1],
                *_element_array([_node_text(nodes[n]) for n in sorted(nodes)]),
                _AFTER[2],
            ])

    def digest(self) -> str:
        """The sha256 of ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, hashed a batch of elements at a time.

        Each table's elements are written in id order, each straight from
        its fields (see _node_digest_text), and ``_DIGEST_BATCH`` element
        texts at a time are joined by commas and hashed; the hash object is
        fed the framing the whole text would have around them. Neither the
        to_dict() copy nor the canonical text is ever whole. An attribute
        value that contains itself, or nests deeper than the interpreter's
        recursion limit, raises ValueError.
        """
        import hashlib  # only validate and audit hash; loading it costs every start

        sha = hashlib.sha256(b"{")
        with _collector_paused():
            try:
                for opening, table, write in ((b'"agents":[', self.agents, _agent_digest_text),
                                              (b'],"edges":[', self.edges, _edge_digest_text),
                                              (b'],"nodes":[', self.nodes, _node_digest_text)):
                    sha.update(opening)
                    ids = sorted(table)
                    for start in range(0, len(ids), _DIGEST_BATCH):
                        if start:
                            sha.update(b",")
                        batch = map(table.__getitem__, ids[start:start + _DIGEST_BATCH])
                        sha.update(",".join(map(write, batch)).encode("utf-8"))
            except RecursionError:
                # what the encoder raises on a cycle, as it does not look for one
                raise ValueError("an attribute value contains itself or nests "
                                 "too deeply to digest") from None
        sha.update(b"]}")
        return sha.hexdigest()

    @classmethod
    def from_dict(cls, doc: dict) -> "AgentBomGraph":
        """Load a serialized graph without insertion checks.

        The document must be well-formed: three lists of objects whose fields
        have the right JSON types, and kind names that parse. Everything
        else is left to validate(). The elements keep the document's
        attribute objects, and the document itself is never altered: the
        loader is handed copies of its three lists.
        """
        schema.check_fields(doc, schema.GRAPH, "graph document", GraphDocumentError)
        return cls._load(list(doc["agents"]), list(doc["nodes"]), list(doc["edges"]))

    @classmethod
    def from_json(cls, text: str) -> "AgentBomGraph":
        """from_dict of the document ``text`` holds.

        Text in to_json's layout is decoded a slice of each element array at
        a time, and each slice's elements are converted before the next is
        decoded (see _load_slices). Any other text, and any text on which
        that raises, is decoded whole and loaded as from_dict loads, so every
        graph and every error is the whole document's. The documents are the
        load's own: none outlives its element, and equal attribute keys and
        string values share one object.
        """
        with _collector_paused():
            try:
                graph = cls._load_slices(text)
            except Exception:  # the whole document's load raises its own error
                graph = None
            if graph is None:
                doc = schema.load_json(text, "graph document", GraphDocumentError)
                schema.check_fields(doc, schema.GRAPH, "graph document", GraphDocumentError)
                graph = cls._load(doc["agents"], doc["nodes"], doc["edges"], own=True)
            return graph

    @classmethod
    def _load(cls, agents: list, nodes: list, edges: list, own: bool = False) -> "AgentBomGraph":
        """The frozen graph of these element documents (see _Loader)."""
        load = _Loader(cls(), own)
        load.agents(agents)
        load.nodes(nodes)
        load.edges(edges)
        load.graph.freeze()
        return load.graph

    @classmethod
    def _load_slices(cls, text) -> "AgentBomGraph | None":
        """The frozen graph of ``text`` in to_json's layout, decoded and
        converted a slice at a time; None for text in any other layout.

        Each array is cut about _SLICE characters apart, only where to_json
        writes the gap between two elements, and a slice is decoded as the
        array of its elements. A text that is the layout's frame around the
        three arrays, each the join of its slices with commas, where every
        slice decodes whole, is a JSON document that decodes to those
        arrays, whatever the slices hold; any other text takes the whole
        path. A slice is decoded inside _PAD arrays it does not need, which
        put its elements deeper than the whole document and the frames of
        its decoder's calls do, so an element nested too deep to decode
        there fails to decode here too, and takes the whole path.
        """
        spans = _array_spans(text)
        if spans is None:
            return None
        (agents, edges, nodes), find = spans, text.find
        load = _Loader(cls(), True)
        for convert, (start, end) in ((load.agents, agents), (load.nodes, nodes),
                                      (load.edges, edges)):
            while start < end:
                cut = find(_GAP, min(start + _SLICE, end), end)
                stop = end if cut < 0 else cut + 6  # the gap's "\n    }"
                chunk = _OPEN + text[start:stop] + _CLOSE
                docs, used = schema.scan_once(chunk, 0)
                if used != len(chunk):
                    return None
                for _ in range(_PAD):
                    if len(docs) != 1:
                        return None
                    docs = docs[0]
                del chunk
                convert(docs)
                start = stop + 1  # past the gap's comma
        load.graph.freeze()
        return load.graph


class _Loader:
    """Turns element documents into a graph with no insertion checks:
    agents, then nodes, then edges, each list in order, as many lists of a
    kind as the caller hands in.

    Each list is the loader's own: an entry is dropped as soon as its
    element exists. Equal agent and trace ids share one string object, an
    edge's endpoints are its loaded nodes' own ids, and an edge stamped at
    its target's time shares the target's timestamp. When the documents are
    the loader's own as well (``own``), each attribute dict is rebuilt with
    its keys and string values taken from the same memo; a caller's
    attribute dicts are left as they are. Fields hold exact strings or None
    once checked, and only strings are shared, so sharing changes no value.
    """

    __slots__ = ("graph", "_share", "_own")

    def __init__(self, graph: AgentBomGraph, own: bool):
        self.graph = graph
        self._share = {}.setdefault
        self._own = own

    def agents(self, docs: list) -> None:
        agents, share = self.graph.agents, self._share
        for index, agent_doc in enumerate(docs):
            docs[index] = None
            descriptor = AgentDescriptor.from_dict(agent_doc)
            if descriptor.agent_id in agents:
                raise DuplicateIdError(f"agent id {quoted(descriptor.agent_id)} appears twice")
            share(descriptor.agent_id, descriptor.agent_id)  # the object nodes take
            agents[descriptor.agent_id] = descriptor

    def nodes(self, docs: list) -> None:
        graph, share, own = self.graph, self._share, self._own
        nodes = graph.nodes
        for index, node_doc in enumerate(docs):
            docs[index] = None
            node = Node.from_dict(node_doc)
            if node.node_id in nodes:
                raise DuplicateIdError(f"node id {quoted(node.node_id)} appears twice")
            node.agent_id = share(node.agent_id, node.agent_id)
            node.trace_id = share(node.trace_id, node.trace_id)
            if own and node.attributes:
                node.attributes = {share(key, key): share(value, value) if type(value) is str
                                   else value for key, value in node.attributes.items()}
            nodes[node.node_id] = node

    def edges(self, docs: list) -> None:
        graph, share, own = self.graph, self._share, self._own
        nodes, edges = graph.nodes, graph.edges
        node_of = nodes.get
        for index, edge_doc in enumerate(docs):
            docs[index] = None
            edge = Edge.from_dict(edge_doc)
            if edge.edge_id in nodes or edge.edge_id in edges:
                raise DuplicateIdError(f"edge id {quoted(edge.edge_id)} appears twice")
            source, target = node_of(edge.source), node_of(edge.target)
            if source is not None:
                edge.source = source.node_id
            if target is not None:
                edge.target = target.node_id
                if edge.timestamp == target.timestamp:
                    edge.timestamp = target.timestamp
            if own and edge.attributes:
                edge.attributes = {share(key, key): share(value, value) if type(value) is str
                                   else value for key, value in edge.attributes.items()}
            edges[edge.edge_id] = edge


# from_json's slices: about this many characters of an element array each;
# a slice adds two to three times its own size to from_json's peak.
# RFC 8259 lets no raw line feed sit inside a JSON string, so to_json's gap
# between two elements, found in the text, is where a slice may end. A slice
# is decoded inside _PAD more arrays than it needs, as _load_slices explains.
_SLICE = 32 * 1024
_GAP = "\n    },\n    {"
_PAD = 8
_OPEN, _CLOSE = "[" * (_PAD + 1), "]" * (_PAD + 1)
# to_json's frame, which it writes and _array_spans reads: its text before
# the agents array, and after each array
_HEAD = '{\n  "agents": '
_AFTER = (',\n  "edges": ', ',\n  "nodes": ', "\n}\n")


def _array_spans(text) -> list | None:
    """The (start, end) of each element array's inside, agents, edges and
    nodes, in a text of to_json's frame; None for any other text. An inside
    runs from the line feed after "[" to the one before the closing "  ]",
    or is empty."""
    if type(text) is not str or not text.startswith(_HEAD):
        return None
    spans, at = [], len(_HEAD)
    for after in _AFTER:
        if text.startswith("[]" + after, at):
            spans.append((at + 1, at + 1))
            at += 2 + len(after)
            continue
        if not text.startswith("[\n    {", at):
            return None
        # the nodes array closes at the end of the text, where rfind starts
        close = (text.rfind if after == _AFTER[-1] else text.find)("\n  ]" + after, at)
        if close < 0:
            return None
        spans.append((at + 1, close))
        at = close + 4 + len(after)
    return spans if at == len(text) else None


# ===========================================================================
# JSON text
# ===========================================================================

# The encoder of the compact, key-sorted text that a graph's digest hashes,
# and the elements it hashes at a time: enough that the per-call cost
# vanishes, few enough that a batch's text stays small. It keeps no record
# of the containers it is inside; a cycle runs into the recursion limit
# instead. _ENCODE is the C encoder JSONEncoder.iterencode builds on each
# call, built once with _CANONICAL's settings; called with a value and an
# indent level of 0, it returns the value's text in one or more parts.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_ENCODE = c_make_encoder(None, _CANONICAL.default, _quote, None, ":", ",", True, False, True)
_DIGEST_BATCH = 1000


def dump_json(doc) -> str:
    """The text ``json.dumps`` gives ``doc`` with an indent of 2 and sorted
    keys, plus a newline, byte for byte.

    Every indented JSON document the program writes goes through here. Asked
    to indent, ``json.dumps`` on CPython 3.10-3.13 leaves its C encoder for a
    generator-based pure-Python one; building each container with one
    ``join`` instead takes about half the time. A plain int is written as its
    repr, which is what ``json.dumps`` writes for it; every other scalar that
    is not a plain string is encoded by ``json.dumps`` itself, so its text is
    the stdlib's.

    Unlike ``json.dumps``, a dict key that is not a string raises
    ``TypeError`` instead of being converted: every document written here has
    string keys, and a stray one should fail, not change the bytes.
    """
    return _json_text(doc, "\n") + "\n"


# Element fields sit three levels deep in a graph document. This is
# dump_json's newline at that depth, which the element texts below also
# spell out.
_FIELD = "\n      "


def _element_array(texts: list, newline: str = "\n  ") -> list:
    """The parts of the array of these texts, already written at the depth
    of its items, that dump_json writes where its newline is ``newline``; by
    default, a graph document's array of element texts."""
    if not texts:
        return ["[]"]
    inner = newline + "  "
    parts = ["," + inner] * (2 * len(texts))
    parts[0] = "[" + inner
    parts[1::2] = texts
    parts.append(newline + "]")
    return parts


def _field_text(value, newline: str = _FIELD) -> str:
    return _quote(value) if type(value) is str else _json_text(value, newline)


def _attributes_text(attributes, newline: str = _FIELD) -> str:
    # to_dict() copies the attributes into a plain dict
    if type(attributes) is not dict:
        attributes = dict(attributes)
    return _json_text(attributes, newline)


# each kind's wire name as a JSON string
_KIND_TEXT = {kind: _quote(kind.value) for kind in (*NodeKind, *EdgeKind)}


def _node_text(node: Node) -> str:
    """The text dump_json gives ``node.to_dict()`` at element depth. A field
    that is a plain string is quoted here, any other takes _field_text."""
    nid, agent, stamp, trace = node.node_id, node.agent_id, node.timestamp, node.trace_id
    head = "{" if agent is None else '{\n      "agent_id": ' + (
        _quote(agent) if type(agent) is str else _field_text(agent)) + ","
    tail = ("" if stamp is None else ',\n      "timestamp": ' + (
        _quote(stamp) if type(stamp) is str else _field_text(stamp))) + (
        "" if trace is None else ',\n      "trace_id": ' + (
            _quote(trace) if type(trace) is str else _field_text(trace)))
    return (f'{head}\n      "attributes": {_attributes_text(node.attributes)},'
            f'\n      "kind": {_KIND_TEXT.get(node.kind) or _field_text(node.kind.value)},'
            f'\n      "node_id": {_quote(nid) if type(nid) is str else _field_text(nid)}'
            f'{tail}\n    }}')


def _edge_text(edge: Edge) -> str:
    """The text dump_json gives ``edge.to_dict()`` at element depth, as _node_text."""
    eid, src, tgt, stamp = edge.edge_id, edge.source, edge.target, edge.timestamp
    tail = "" if stamp is None else ',\n      "timestamp": ' + (
        _quote(stamp) if type(stamp) is str else _field_text(stamp))
    return (f'{{\n      "attributes": {_attributes_text(edge.attributes)},'
            f'\n      "edge_id": {_quote(eid) if type(eid) is str else _field_text(eid)},'
            f'\n      "kind": {_KIND_TEXT.get(edge.kind) or _field_text(edge.kind.value)},'
            f'\n      "source": {_quote(src) if type(src) is str else _field_text(src)},'
            f'\n      "target": {_quote(tgt) if type(tgt) is str else _field_text(tgt)}'
            f'{tail}\n    }}')


def _compact(value) -> str:
    """The text ``_CANONICAL.encode(value)`` gives."""
    return "".join(_ENCODE(value, 0))


def _agent_digest_text(agent: AgentDescriptor) -> str:
    return _compact(agent.to_dict())  # a graph has few agents


def _node_digest_text(node: Node) -> str:
    """The text _CANONICAL gives ``node.to_dict()``, written as _node_text
    writes to_json's. The kind and attributes are read first, as to_dict()
    reads them, so a node that to_dict() raises on raises the same here."""
    kind = _KIND_TEXT.get(node.kind) or _compact(node.kind.value)
    attributes = node.attributes
    attributes = "".join(_ENCODE(attributes if type(attributes) is dict else dict(attributes), 0))
    nid, agent, stamp, trace = node.node_id, node.agent_id, node.timestamp, node.trace_id
    head = "{" if agent is None else '{"agent_id":' + (
        _quote(agent) if type(agent) is str else _compact(agent)) + ","
    tail = ("" if stamp is None else ',"timestamp":' + (
        _quote(stamp) if type(stamp) is str else _compact(stamp))) + (
        "" if trace is None else ',"trace_id":' + (
            _quote(trace) if type(trace) is str else _compact(trace)))
    return (f'{head}"attributes":{attributes},"kind":{kind},'
            f'"node_id":{_quote(nid) if type(nid) is str else _compact(nid)}{tail}}}')


def _edge_digest_text(edge: Edge) -> str:
    """The text _CANONICAL gives ``edge.to_dict()``, as _node_digest_text."""
    kind = _KIND_TEXT.get(edge.kind) or _compact(edge.kind.value)
    attributes = edge.attributes
    attributes = "".join(_ENCODE(attributes if type(attributes) is dict else dict(attributes), 0))
    eid, src, tgt, stamp = edge.edge_id, edge.source, edge.target, edge.timestamp
    tail = "}" if stamp is None else ',"timestamp":' + (
        _quote(stamp) if type(stamp) is str else _compact(stamp)) + "}"
    return (f'{{"attributes":{attributes},'
            f'"edge_id":{_quote(eid) if type(eid) is str else _compact(eid)},"kind":{kind},'
            f'"source":{_quote(src) if type(src) is str else _compact(src)},'
            f'"target":{_quote(tgt) if type(tgt) is str else _compact(tgt)}{tail}')


# each registered attribute key's text before its value, '"key": '
_KEY_TEXT = {key: _quote(key) + ": " for key in schema.ATTRIBUTE_CHECKS}


def _json_text(value, newline: str) -> str:
    inner = newline + "  "
    comma = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []  # a loop: most dicts are small, and a comprehension's call costs more
        for k, v in sorted(value.items()):
            parts.append((_KEY_TEXT[k] if k in _KEY_TEXT else _quote(k) + ": ")
                         + (_quote(v) if type(v) is str else _json_text(v, inner)))
        return f"{{{inner}{comma.join(parts)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of strings, the common case
            body = comma.join(map(_quote, value))
        except TypeError:
            body = comma.join([_quote(v) if type(v) is str else _json_text(v, inner)
                               for v in value])
        return f"[{inner}{body}{newline}]"
    if type(value) is int:
        return repr(value)  # the text json.dumps writes for an int, without its call
    return json.dumps(value)
