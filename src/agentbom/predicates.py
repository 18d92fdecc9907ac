"""Boolean predicate trees evaluated against one graph element.

Predicates are total: a comparison against a missing attribute, or one
that would have to hash a map or a list, is false, never an error. Values
in comparisons are literals or references to the current entry element's
attributes ({"entry_attr": key}), which lets a rule ask questions like
"does this element share a danger flag with the entry".
The neighbor atom is the one predicate that looks past the element itself:
it tests the incident edges of a node, which entry selection needs.

A predicate is a pure function of the element, the graph and the entry
attributes it reads (``entry_keys``), so an ``Answers`` table may hand one
entry the answers another entry got, when the two agree on those
attributes.
"""

from __future__ import annotations

from .errors import PredicateError, UnknownKindError
from .schema import (EDGE_KIND_OF_NAME, ENTRY_ATTR, NODE_KIND_OF_NAME, PREDICATE_OPS, Layer,
                     check_fields, parse_edge_kind, quoted)

_COMPARATORS = ("==", "!=", "contains", "intersects")
_LAYER_NAMES = tuple(layer.value for layer in Layer)
_SCALARS = (str, int, float, bool, type(None))
_KIND_OF_NAME = {**NODE_KIND_OF_NAME, **EDGE_KIND_OF_NAME}

# Evaluating a predicate takes up to two stack frames per level, and the
# interpreter allows 1,000 in all, so a document may nest no deeper than this.
MAX_DEPTH = 100


class EntryAttr:
    """Marker for a value resolved from the entry element at evaluation time."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def to_dict(self) -> dict:
        return {"entry_attr": self.key}


def _resolve_value(value, entry):
    if isinstance(value, EntryAttr):
        if entry is None:
            return None
        return entry.attributes.get(value.key)
    return value


class Predicate:
    """Base class; subclasses implement evaluate and to_dict. The engine
    calls ``evaluate(element, graph, entry)`` with positional arguments."""

    def evaluate(self, element, graph=None, entry=None) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def referenced_keys(self) -> frozenset:
        """Attribute keys this predicate reads on the element under test."""
        return frozenset()

    def entry_keys(self) -> frozenset | None:
        """Attribute keys this predicate reads on the entry, through EntryAttr;
        None when it may read anything of the entry, which is what a
        subclass that does not say is taken to do."""
        return None


class AttrCmp(Predicate):
    """Compare one attribute against a literal or entry-attribute value."""

    def __init__(self, key: str, cmp: str, value):
        if cmp not in _COMPARATORS:
            raise PredicateError(f"unknown comparator {quoted(cmp)}")
        self.key = key
        self.cmp = cmp
        self.value = value

    def evaluate(self, element, graph=None, entry=None) -> bool:
        actual = element.attributes.get(self.key)
        if actual is None:
            return False
        expected = _resolve_value(self.value, entry)
        if expected is None:
            return False
        if self.cmp == "==":
            return actual == expected
        if self.cmp == "!=":
            return actual != expected
        try:
            if self.cmp == "contains":
                if isinstance(actual, str):
                    return isinstance(expected, str) and expected in actual
                return isinstance(actual, (list, tuple, dict)) and expected in actual
            # intersects
            left = actual if isinstance(actual, (list, tuple)) else [actual]
            right = expected if isinstance(expected, (list, tuple)) else [expected]
            return bool(set(left) & set(right))
        except TypeError:  # a map, or a map or list among the items
            return False

    def to_dict(self) -> dict:
        value = self.value.to_dict() if isinstance(self.value, EntryAttr) else self.value
        return {"op": "attr", "key": self.key, "cmp": self.cmp, "value": value}

    def referenced_keys(self):
        return frozenset({self.key})

    def entry_keys(self):
        return frozenset({self.value.key}) if isinstance(self.value, EntryAttr) else frozenset()


class HasFlag(Predicate):
    """True when danger_flags is non-empty, or intersects any_of if given."""

    def __init__(self, any_of=None):
        self.any_of = tuple(any_of) if any_of is not None else None

    def evaluate(self, element, graph=None, entry=None) -> bool:
        flags = element.attributes.get("danger_flags")
        if not flags:
            return False
        if self.any_of is None:
            return True
        return bool(set(flags) & set(self.any_of))

    def to_dict(self) -> dict:
        doc = {"op": "flags"}
        if self.any_of is not None:
            doc["any_of"] = list(self.any_of)
        return doc

    def referenced_keys(self):
        return frozenset({"danger_flags"})

    def entry_keys(self):
        return frozenset()


class KindIs(Predicate):
    """True when the element's kind name is one of the given names."""

    def __init__(self, names):
        self.names = tuple(names)
        # the kinds so named, tested by identity
        self._kinds = frozenset(_KIND_OF_NAME[name] for name in self.names
                                if name in _KIND_OF_NAME)

    def evaluate(self, element, graph=None, entry=None) -> bool:
        return element.kind in self._kinds

    def to_dict(self) -> dict:
        return {"op": "kind", "any_of": list(self.names)}

    def entry_keys(self):
        return frozenset()


class LayerIs(Predicate):
    """True for nodes in the given layer; false for edges."""

    def __init__(self, layer: str):
        self.layer = Layer(layer) if not isinstance(layer, Layer) else layer

    def evaluate(self, element, graph=None, entry=None) -> bool:
        return getattr(element.kind, "layer", None) is self.layer

    def to_dict(self) -> dict:
        return {"op": "layer", "layer": self.layer.value}

    def entry_keys(self):
        return frozenset()


class Not(Predicate):
    def __init__(self, inner: Predicate):
        self.inner = inner

    def evaluate(self, element, graph=None, entry=None) -> bool:
        return not self.inner.evaluate(element, graph, entry)

    def to_dict(self) -> dict:
        return {"op": "not", "arg": self.inner.to_dict()}

    def referenced_keys(self):
        return self.inner.referenced_keys()

    def entry_keys(self):
        return self.inner.entry_keys()


class _Junction(Predicate):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def referenced_keys(self):
        keys = frozenset()
        for part in self.parts:
            keys |= part.referenced_keys()
        return keys

    def entry_keys(self):
        return _union(part.entry_keys() for part in self.parts)


class And(_Junction):
    def evaluate(self, element, graph=None, entry=None) -> bool:
        for part in self.parts:
            if not part.evaluate(element, graph, entry):
                return False
        return True

    def to_dict(self) -> dict:
        return {"op": "and", "args": [p.to_dict() for p in self.parts]}


class Or(_Junction):
    def evaluate(self, element, graph=None, entry=None) -> bool:
        for part in self.parts:
            if part.evaluate(element, graph, entry):
                return True
        return False

    def to_dict(self) -> dict:
        return {"op": "or", "args": [p.to_dict() for p in self.parts]}


class NeighborMatch(Predicate):
    """True when the node has an incident edge meeting the given tests.

    direction "in" looks at edges arriving at the node and tests their
    source; "out" looks at departing edges and tests their target. Always
    false for edge elements and when no graph is supplied.
    """

    def __init__(self, direction: str, edge_kinds, node=None, edge=None):
        if direction not in ("in", "out"):
            raise PredicateError(f"neighbor direction must be in or out, got {quoted(direction)}")
        self.direction = direction
        self.edge_kinds = tuple(
            k.value if hasattr(k, "value") else str(k) for k in edge_kinds
        )
        try:
            self._kinds = frozenset(parse_edge_kind(k) for k in self.edge_kinds)
        except UnknownKindError as exc:
            raise PredicateError(f"neighbor predicate: {exc}") from None
        self.node = node
        self.edge = edge

    def evaluate(self, element, graph=None, entry=None) -> bool:
        if graph is None or not hasattr(element, "node_id"):
            return False
        if self.direction == "in":
            edges = graph.in_edges(element.node_id, self._kinds)
        else:
            edges = graph.out_edges(element.node_id, self._kinds)
        for candidate in edges:
            if self.edge is not None and not self.edge.evaluate(candidate, graph, entry):
                continue
            other_id = candidate.source if self.direction == "in" else candidate.target
            if self.node is not None and not self.node.evaluate(
                    graph.nodes[other_id], graph, entry):
                continue
            return True
        return False

    def to_dict(self) -> dict:
        doc = {
            "op": "neighbor",
            "direction": self.direction,
            "edge_kinds": list(self.edge_kinds),
        }
        if self.node is not None:
            doc["node"] = self.node.to_dict()
        if self.edge is not None:
            doc["edge"] = self.edge.to_dict()
        return doc

    def entry_keys(self):
        return _union(part.entry_keys() for part in (self.node, self.edge)
                      if part is not None)


def _union(key_sets):
    """The keys of all the sets, or None when any is None."""
    keys = frozenset()
    for part in key_sets:
        if part is None:
            return None
        keys |= part
    return keys


# ===========================================================================
# answers
# ===========================================================================


def _frozen(value):
    """An attribute value as a dict key, equal to another's only when the
    two values are equal: a list or a map becomes its type paired with its
    frozen items."""
    if isinstance(value, list):
        return list, tuple(map(_frozen, value))
    if isinstance(value, dict):
        return dict, frozenset((k, _frozen(v)) for k, v in value.items())
    return value


class Answers:
    """Predicate answers over one graph, asked once per (predicate, element
    id, the entry's values of the predicate's entry_keys()).

    Entries that agree on the attributes a predicate reads get its answers
    from one table. A predicate that does not say which entry attributes it
    reads keeps one table per entry. Meant to live for one rule's
    evaluation; it holds the predicates and the graph.
    """

    __slots__ = ("graph", "tables", "reads")

    def __init__(self, graph):
        self.graph = graph
        self.tables = {}  # key -> {element id: answer}
        self.reads = {}   # predicate -> its entry_keys(), sorted, or None

    def key(self, predicate, entry) -> tuple:
        """What the predicate's answers depend on, besides the element."""
        if predicate not in self.reads:
            keys = predicate.entry_keys()
            self.reads[predicate] = None if keys is None else sorted(keys)
        keys = self.reads[predicate]
        if keys is None:
            return predicate, entry.node_id if hasattr(entry, "node_id") else entry.edge_id
        attributes = entry.attributes
        return predicate, tuple(_frozen(attributes.get(k)) for k in keys)

    def table(self, predicate, entry) -> dict:
        """The predicate's answers for this entry: {element id: answer}."""
        return self.tables.setdefault(self.key(predicate, entry), {})

    def asker(self, predicate, entry):
        """element id -> the predicate's answer for that element and entry."""
        table = self.table(predicate, entry)
        graph, element = self.graph, self.graph.element

        def ask(element_id) -> bool:
            answer = table.get(element_id)
            if answer is None:
                answer = table[element_id] = bool(
                    predicate.evaluate(element(element_id), graph, entry))
            return answer

        return ask


# ===========================================================================
# deserialization
# ===========================================================================


def _parse_value(raw):
    """A comparison value: a JSON scalar, a list of scalars or an entry_attr."""
    if isinstance(raw, dict):
        check_fields(raw, ENTRY_ATTR, "comparison value", PredicateError)
        return EntryAttr(raw["entry_attr"])
    if not all(isinstance(v, _SCALARS) for v in (raw if isinstance(raw, list) else [raw])):
        raise PredicateError(f"comparison value must be a JSON scalar, a list of scalars "
                             f"or {{\"entry_attr\": key}}, got {quoted(raw)}")
    return raw


def predicate_from_dict(doc: dict, depth: int = 1) -> Predicate:
    """Build a predicate tree from its JSON document, which sits ``depth``
    levels deep in the tree."""
    if depth > MAX_DEPTH:
        raise PredicateError(f"predicate nests deeper than {MAX_DEPTH} levels")
    if not isinstance(doc, dict) or "op" not in doc:
        raise PredicateError(f"predicate document needs an op field: {quoted(doc)}")
    op = doc["op"]
    table = PREDICATE_OPS.get(op) if type(op) is str else None
    if table is None:
        raise PredicateError(f"unknown predicate op {quoted(op)}")
    check_fields(doc, table, f"predicate op {quoted(op)}", PredicateError)
    if op == "attr":
        return AttrCmp(doc["key"], doc["cmp"], _parse_value(doc["value"]))
    if op == "flags":
        return HasFlag(doc.get("any_of"))
    if op == "kind":
        for name in doc["any_of"]:
            if name not in _KIND_OF_NAME:
                raise PredicateError(f"kind predicate: unknown node or edge kind {quoted(name)}")
        return KindIs(doc["any_of"])
    if op == "layer":
        if doc["layer"] not in _LAYER_NAMES:
            raise PredicateError(f"unknown layer {quoted(doc['layer'])}")
        return LayerIs(doc["layer"])
    if op == "not":
        return Not(predicate_from_dict(doc["arg"], depth + 1))
    if op == "neighbor":
        return NeighborMatch(
            doc["direction"],
            doc["edge_kinds"],
            node=predicate_from_dict(doc["node"], depth + 1) if "node" in doc else None,
            edge=predicate_from_dict(doc["edge"], depth + 1) if "edge" in doc else None,
        )
    parts = [predicate_from_dict(d, depth + 1) for d in doc["args"]]
    return And(parts) if op == "and" else Or(parts)
