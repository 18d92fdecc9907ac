"""The audit rule template, the clause engine, and the builtin risk pack.

A rule names an entry selector, a backward path spec, a forward path spec,
and a conjunction of scoped clauses. The engine localizes entries, traces
from each the directions its clauses still need, and emits one finding per
entry whose clauses all hold. Kept paths are the ones that satisfy the
exists-clauses of their scope, so a finding's paths are themselves the
evidence chain: it reports one witness path per endpoint with the number
of kept paths that end there, and its clauses read every element of every
kept path.
"""

from __future__ import annotations


from .errors import RulePackError, UnknownKindError
from .graph import (
    AgentBomGraph,
    Edge,
    _attributes_text,
    _element_array,
    _field_text,
    _json_text,
    _quote,
    dump_json,
)
from .predicates import (
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
from . import schema
from .record import FRESH, Record
from .schema import quoted
from .traversal import BACKWARD, FORWARD, AuditPath, PathSpec, Trace, TraceContext, trace

RISK_IDS = tuple(f"ASI{n:02d}" for n in range(1, 11))

RISK_NAMES = {
    "ASI01": "goal_hijack",
    "ASI02": "tool_misuse",
    "ASI03": "privilege_abuse",
    "ASI04": "supply_chain_vulnerability",
    "ASI05": "unexpected_code_execution",
    "ASI06": "memory_poisoning",
    "ASI07": "insecure_inter_agent_communication",
    "ASI08": "cascading_failure",
    "ASI09": "human_trust_exploitation",
    "ASI10": "rogue_agent",
}

CLAUSE_SCOPES = ("entry", "back_origin", "back_path", "fwd_terminus", "fwd_path")
QUANTIFIERS = ("exists", "forall")

_PROPAGATION_KIND_NAMES = tuple(sorted(k.value for k in schema.PROPAGATION_KINDS))


# ===========================================================================
# rule structure
# ===========================================================================


class EntrySelector(Record):
    """Which elements may open a candidate risk chain."""

    __slots__ = ("element_class", "kinds", "predicate", "_kind_set")

    def __init__(self, element_class: str, kinds: tuple, predicate: Predicate | None = None):
        if element_class not in ("node", "edge"):
            raise RulePackError(
                f"entry element_class must be node or edge, got {quoted(element_class)}"
            )
        self.element_class = element_class
        self.kinds = tuple(kinds)
        if not self.kinds:
            raise RulePackError("entry selector needs at least one kind")
        self.predicate = predicate
        if element_class == "node":
            self._kind_set = frozenset(schema.parse_node_kind(k) for k in self.kinds)
        else:
            self._kind_set = schema.expand_edge_kinds(self.kinds)

    def candidates(self, graph: AgentBomGraph):
        of_kind = (graph.nodes_of_kind if self.element_class == "node"
                   else graph.edges_of_kind)
        for kind in sorted(self._kind_set, key=lambda k: k.value):
            yield from of_kind(kind)

    def to_dict(self) -> dict:
        doc = {"element_class": self.element_class, "kinds": list(self.kinds)}
        if self.predicate is not None:
            doc["predicate"] = self.predicate.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EntrySelector":
        schema.check_fields(doc, schema.RULE_ENTRY, "rule entry", RulePackError)
        predicate = predicate_from_dict(doc["predicate"]) if "predicate" in doc else None
        return cls(element_class=doc["element_class"], kinds=tuple(doc["kinds"]),
                   predicate=predicate)


class Clause(Record):
    """One scoped, quantified predicate; all of a rule's clauses conjoin."""

    __slots__ = ("scope", "quantifier", "predicate")

    def __init__(self, scope: str, quantifier: str, predicate: Predicate):
        if scope not in CLAUSE_SCOPES:
            raise RulePackError(f"unknown clause scope {quoted(scope)}")
        if quantifier not in QUANTIFIERS:
            raise RulePackError(f"unknown quantifier {quoted(quantifier)}")
        self.scope, self.quantifier, self.predicate = scope, quantifier, predicate

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "quantifier": self.quantifier,
            "predicate": self.predicate.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Clause":
        schema.check_fields(doc, schema.RULE_CLAUSE, "rule condition", RulePackError)
        return cls(
            scope=doc["scope"],
            quantifier=doc["quantifier"],
            predicate=predicate_from_dict(doc["predicate"]),
        )


class AuditRule(Record):
    __slots__ = ("risk_id", "name", "entry", "back", "fwd", "conditions")

    def __init__(self, risk_id: str, name: str, entry: EntrySelector, back: PathSpec,
                 fwd: PathSpec, conditions: list):
        if not conditions:
            raise RulePackError(f"rule {quoted(risk_id)}: conditions must be non-empty")
        scopes = {c.scope for c in conditions}
        if "entry" not in scopes:
            raise RulePackError(f"rule {quoted(risk_id)}: needs an entry clause")
        if not scopes & {"back_origin", "back_path", "fwd_terminus", "fwd_path"}:
            raise RulePackError(
                f"rule {quoted(risk_id)}: needs a backward or forward clause"
            )
        if back.direction != BACKWARD or fwd.direction != FORWARD:
            raise RulePackError(f"rule {quoted(risk_id)}: path specs point the wrong way")
        self.risk_id, self.name, self.entry = risk_id, name, entry
        self.back, self.fwd, self.conditions = back, fwd, conditions

    def to_dict(self) -> dict:
        return {
            "risk_id": self.risk_id,
            "name": self.name,
            "entry": self.entry.to_dict(),
            "back": self.back.to_dict(),
            "fwd": self.fwd.to_dict(),
            "conditions": [c.to_dict() for c in self.conditions],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AuditRule":
        schema.check_fields(doc, schema.RULE, "rule", RulePackError)
        try:
            entry = EntrySelector.from_dict(doc["entry"])
            back = _spec_from_dict(doc["back"], BACKWARD)
            fwd = _spec_from_dict(doc["fwd"], FORWARD)
        except UnknownKindError as exc:
            raise RulePackError(f"rule {quoted(doc['risk_id'])}: {exc}") from None
        return cls(
            risk_id=doc["risk_id"],
            name=doc.get("name", ""),
            entry=entry,
            back=back,
            fwd=fwd,
            conditions=[Clause.from_dict(c) for c in doc["conditions"]],
        )


def _spec_from_dict(doc: dict, expected_direction: str) -> PathSpec:
    what = f"rule {expected_direction} spec"
    schema.check_fields(doc, schema.RULE_SPEC, what, RulePackError)
    direction = doc.get("direction", expected_direction)
    if direction not in (BACKWARD, FORWARD):
        raise RulePackError(f"{what} direction must be backward or forward, "
                            f"got {quoted(direction)}")
    terminal = predicate_from_dict(doc["terminal"]) if "terminal" in doc else None
    max_depth = doc.get("max_depth", 32)
    if max_depth < 1:
        raise RulePackError(f"{what} max_depth must be a positive integer, "
                            f"got {quoted(max_depth)}")
    return PathSpec(
        direction=direction,
        allowed_edge_kinds=doc["edge_kinds"],
        allowed_node_kinds=doc.get("node_kinds"),
        terminal=terminal,
        max_depth=max_depth,
        cross_agent=doc.get("cross_agent", False),
    )


def load_rules(text: str) -> list:
    """Load a rule pack from JSON: either a list or {"rules": [...]}."""
    doc = schema.load_json(text, "rule pack", RulePackError)
    if isinstance(doc, dict):
        schema.check_fields(doc, schema.RULE_PACK, "rule pack", RulePackError)
        doc = doc["rules"]
    if not isinstance(doc, list) or not doc:
        raise RulePackError("rule pack must contain a non-empty rules list")
    rules = [AuditRule.from_dict(entry) for entry in doc]
    _check_risk_ids(rules)
    return rules


def _check_risk_ids(rules) -> None:
    """A report keys its stats by risk_id, so no two rules may share one."""
    seen = set()
    for rule in rules:
        if rule.risk_id in seen:
            raise RulePackError(f"rule risk_id {quoted(rule.risk_id)} appears twice")
        seen.add(rule.risk_id)


def dump_rules(rules) -> str:
    return dump_json({"rules": [r.to_dict() for r in rules]})


# ===========================================================================
# findings
# ===========================================================================


class EvidenceItem(Record):
    """One element that satisfied (or was covered by) a clause."""

    __slots__ = ("element_id", "clause_index", "attributes")

    def __init__(self, element_id: str, clause_index: int, attributes: dict = FRESH):
        self.element_id = element_id
        self.clause_index = clause_index
        self.attributes = {} if attributes is FRESH else attributes

    def to_dict(self) -> dict:
        return {
            "element": self.element_id,
            "clause": self.clause_index,
            "attributes": dict(self.attributes),
        }


class Finding(Record):
    """One entry whose clauses all hold.

    ``back_paths`` and ``fwd_paths`` hold one witness per endpoint, each
    with its count; ``back_scope`` and ``fwd_scope`` hold every element of
    every kept path on that side, witnesses or not.
    """

    __slots__ = ("risk_id", "risk_name", "entry", "back_paths", "fwd_paths", "evidence",
                 "trace_id", "agents_involved", "phase_label", "back_scope", "fwd_scope")

    def __init__(self, risk_id: str, risk_name: str, entry: str, back_paths: list,
                 fwd_paths: list, evidence: list, trace_id: str = "",
                 agents_involved: list = FRESH, phase_label: str = "",
                 back_scope: tuple = (), fwd_scope: tuple = ()):
        self.risk_id, self.risk_name, self.entry = risk_id, risk_name, entry
        self.back_paths, self.fwd_paths, self.evidence = back_paths, fwd_paths, evidence
        self.trace_id = trace_id
        self.agents_involved = [] if agents_involved is FRESH else agents_involved
        self.phase_label = phase_label
        self.back_scope, self.fwd_scope = back_scope, fwd_scope

    def to_dict(self) -> dict:
        return {
            "risk_id": self.risk_id,
            "risk_name": self.risk_name,
            "entry": self.entry,
            "trace_id": self.trace_id,
            "agents_involved": list(self.agents_involved),
            "phase_label": self.phase_label,
            "back_paths": [p.to_dict() for p in self.back_paths],
            "fwd_paths": [p.to_dict() for p in self.fwd_paths],
            "evidence": [e.to_dict() for e in self.evidence],
        }

    def element_ids(self) -> set:
        """The entry and every element of every kept path on either side."""
        return {self.entry, *self.back_scope, *self.fwd_scope}


class AuditReport(Record):
    __slots__ = ("graph_digest", "findings", "stats")

    def __init__(self, graph_digest: str, findings: list, stats: dict):
        self.graph_digest, self.findings, self.stats = graph_digest, findings, stats

    def risk_ids(self) -> list:
        return sorted({f.risk_id for f in self.findings})

    def to_dict(self) -> dict:
        return {
            "graph_digest": self.graph_digest,
            "findings": [f.to_dict() for f in self.findings],
            "stats": self.stats,
        }

    def to_json(self) -> str:
        """``dump_json(self.to_dict())``, written straight from the findings.

        Each path, evidence item and finding becomes one text whose field
        keys are constant and sorted, as graph elements do in
        AgentBomGraph.to_json; a path's elements, which are element ids,
        are quoted in one join. The document is put together by one final
        join.
        """
        return "".join([
            '{\n  "findings": ', *_element_array([_finding_text(f) for f in self.findings]),
            ',\n  "graph_digest": ', _field_text(self.graph_digest, "\n  "),
            ',\n  "stats": ', _json_text(self.stats, "\n  "), "\n}\n",
        ])


# dump_json's newlines in a report document at the fields of a finding, and
# at the fields of each of its paths and evidence items
_FINDING = "\n      "
_ITEM = "\n          "


def _path_text(path: AuditPath) -> str:
    """The text dump_json gives ``path.to_dict()`` in a report."""
    elements, count = path.elements, path.count
    listed = ("[\n            " + ",\n            ".join(map(_quote, elements))
              + "\n          ]") if elements else "[]"
    head = ('{\n          "count": ' + _json_text(count, _ITEM) + ",") if count > 1 else "{"
    return (f'{head}\n          "direction": {_field_text(path.direction, _ITEM)},'
            f'\n          "elements": {listed}\n        }}')


def _evidence_text(item: EvidenceItem) -> str:
    """The text dump_json gives ``item.to_dict()`` in a report."""
    return (f'{{\n          "attributes": {_attributes_text(item.attributes, _ITEM)},'
            f'\n          "clause": {_json_text(item.clause_index, _ITEM)},'
            f'\n          "element": {_field_text(item.element_id, _ITEM)}\n        }}')


def _finding_text(finding: Finding) -> str:
    """The text dump_json gives ``finding.to_dict()`` in a report."""
    return "".join([
        '{\n      "agents_involved": ', _json_text(list(finding.agents_involved), _FINDING),
        ',\n      "back_paths": ',
        *_element_array([_path_text(p) for p in finding.back_paths], _FINDING),
        ',\n      "entry": ', _field_text(finding.entry, _FINDING),
        ',\n      "evidence": ',
        *_element_array([_evidence_text(e) for e in finding.evidence], _FINDING),
        ',\n      "fwd_paths": ',
        *_element_array([_path_text(p) for p in finding.fwd_paths], _FINDING),
        ',\n      "phase_label": ', _field_text(finding.phase_label, _FINDING),
        ',\n      "risk_id": ', _field_text(finding.risk_id, _FINDING),
        ',\n      "risk_name": ', _field_text(finding.risk_name, _FINDING),
        ',\n      "trace_id": ', _field_text(finding.trace_id, _FINDING),
        "\n    }",
    ])


# ===========================================================================
# engine
# ===========================================================================


def locate_entries(graph: AgentBomGraph, rule: AuditRule, answers=None) -> list:
    """All element ids matching the rule's entry selector, sorted.

    The selector's predicate is asked of each candidate, as its own entry.
    Each entry's answer goes into ``answers``, when given, so an entry
    clause with the same predicate reuses it instead of asking again.
    """
    predicate = rule.entry.predicate
    out = []
    for element in rule.entry.candidates(graph):
        if predicate is None or predicate.evaluate(element, graph, element):
            element_id = _element_id(element)
            if answers is not None and predicate is not None:
                answers.table(predicate, element)[element_id] = True
            out.append(element_id)
    return sorted(out)


def _scope_ids(scope, entry_id, side: Trace | None) -> list:
    """The element ids a clause of ``scope`` reads: the entry, or the
    endpoints or path elements of ``side``, the trace of its direction."""
    if scope == "entry":
        return [entry_id]
    if scope == "back_origin":
        ids = [p.origin for p in side.paths]
    elif scope == "fwd_terminus":
        ids = [p.terminus for p in side.paths]
    else:  # back_path, fwd_path
        ids = side.scope
    # a traced path starts at the entry itself; the path scopes ask about
    # everything beyond it, so the entry never testifies for its own paths
    return [i for i in ids if i != entry_id]


def _element_id(element) -> str:
    return element.edge_id if isinstance(element, Edge) else element.node_id


def _settle(graph, rule, scopes, entry, side, answers, evidence) -> bool:
    """Settle the rule's clauses of the given scopes over ``side`` (None for
    the entry scope), in clause order, stopping at the first that fails.

    exists fails over an empty scope; its evidence is the scope elements that
    match. forall holds over an empty scope and stops at the first element
    that fails it; its evidence is every scope element. A clause that holds
    leaves its evidence items under its index in ``evidence``.
    """
    entry_id = _element_id(entry)
    for index, clause in enumerate(rule.conditions):
        if clause.scope not in scopes:
            continue
        ids = _scope_ids(clause.scope, entry_id, side)
        ask = answers.asker(clause.predicate, entry)
        if clause.quantifier == "exists":
            ids = [i for i in ids if ask(i)]
            if not ids:
                return False
        elif not all(map(ask, ids)):
            return False
        keys = clause.predicate.referenced_keys()
        evidence[index] = [EvidenceItem(i, index, _snapshot(graph.element(i), keys))
                           for i in ids]
    return True


def _snapshot(element, keys) -> dict:
    return {k: element.attributes[k] for k in sorted(keys) if k in element.attributes}


_BACK_SCOPES = ("back_origin", "back_path")
_FWD_SCOPES = ("fwd_terminus", "fwd_path")
_END_SCOPES = ("back_origin", "fwd_terminus")


def _keep_tests(clauses, entry, scopes, answers) -> dict:
    """trace's keep tests for the exists-clauses of the given scopes: the
    endpoint clauses hold on a path's end, and each path clause on one of
    its elements. Like _settle, they skip the entry and read ``answers``."""
    entry_id = _element_id(entry)

    def test(clause):
        ask = answers.asker(clause.predicate, entry)
        return lambda i: i != entry_id and ask(i)

    exists = [c for c in clauses if c.quantifier == "exists" and c.scope in scopes]
    ends = [test(c) for c in exists if c.scope in _END_SCOPES]
    return {"keep_end": lambda i: all(end(i) for end in ends),
            "keep_marks": [test(c) for c in exists if c.scope not in _END_SCOPES]}


def _phase_label(entry) -> str:
    """Where in the lifecycle the entry sits: a node's layer, an edge's family."""
    return (entry.kind.family if isinstance(entry, Edge) else entry.kind.layer).value


def evaluate_rule(graph: AgentBomGraph, rule: AuditRule, stats=None) -> list:
    """Run one rule over the whole graph; returns its findings.

    A finding reports the deepest kept backward paths (reach toward the
    origin) and the nearest kept forward ones (realized impact), one
    witness per endpoint with a count; each side's clauses are settled
    over every element of its kept paths, so the evidence and the reported
    chains agree. Each entry yields at most one finding, and findings come
    in entry order.

    Each entry is settled in this order, stopping at the first failure:
    the entry-scope clauses; the forward trace, which does not extend a
    kept path (every forward exists-clause holds on it alone), so its kept
    paths are the nearest; the forward-scope clauses; and only then the
    backward trace, whose kept paths that no kept path extends are the
    deepest, and the backward-scope clauses. Each clause is settled once,
    and a finding lists its evidence in clause order.

    When a ``stats`` dict is given, it receives the rule's ``entries``,
    ``paths_explored`` (the terminal paths the traces walked, kept or not)
    and ``findings`` counts.

    What does not depend on the entry is worked out once for all entries.
    One Answers table holds the answers of the clause predicates and the
    path terminals, asked once per (predicate, element, the entry's values
    of the attributes the predicate reads), so a terminal that is also an
    endpoint clause is asked once per element. One TraceContext per side
    holds the steps, node facts and same-instant components its traces
    share. That is sound because predicates are pure functions of the
    element, the graph and the entry attributes they read, and the graph
    does not change during an audit. Both live for this call only.
    """
    answers = Answers(graph)
    entries = locate_entries(graph, rule, answers)
    findings, explored = [], 0
    fwd_context = TraceContext(graph, rule.fwd, answers)
    back_context = TraceContext(graph, rule.back, answers)
    for entry_id in entries:
        entry = graph.element(entry_id)
        evidence = {}
        if not _settle(graph, rule, ("entry",), entry, None, answers, evidence):
            continue
        fwd = trace(graph, entry_id, rule.fwd, context=fwd_context,
                    **_keep_tests(rule.conditions, entry, _FWD_SCOPES, answers))
        explored += fwd.explored
        if not _settle(graph, rule, _FWD_SCOPES, entry, fwd, answers, evidence):
            continue
        back = trace(graph, entry_id, rule.back, context=back_context,
                     **_keep_tests(rule.conditions, entry, _BACK_SCOPES, answers))
        explored += back.explored
        if not _settle(graph, rule, _BACK_SCOPES, entry, back, answers, evidence):
            continue
        finding = Finding(
            risk_id=rule.risk_id,
            risk_name=rule.name,
            entry=entry_id,
            back_paths=list(back.paths),
            fwd_paths=list(fwd.paths),
            evidence=[item for index in sorted(evidence) for item in evidence[index]],
            trace_id=_finding_trace_id(graph, entry, back.paths, fwd.paths),
            phase_label=_phase_label(entry),
            back_scope=back.scope,
            fwd_scope=fwd.scope,
        )
        finding.agents_involved = _agents_involved(graph, finding)
        findings.append(finding)
    if stats is not None:
        stats.update(entries=len(entries), paths_explored=explored,
                     findings=len(findings))
    return findings


def _finding_trace_id(graph, entry, back_paths, fwd_paths) -> str:
    own = getattr(entry, "trace_id", None) or entry.attributes.get("trace_id")
    if own:
        return own
    for path in list(fwd_paths) + list(back_paths):
        for node_id in path.node_ids:
            trace_id = graph.nodes[node_id].trace_id
            if trace_id:
                return trace_id
    return ""


def _agents_involved(graph, finding) -> list:
    nodes = graph.nodes
    return sorted({nodes[i].agent_id for i in finding.element_ids()
                   if i in nodes and nodes[i].agent_id})


def audit(graph: AgentBomGraph, rules=None) -> AuditReport:
    """Evaluate every rule independently and merge findings.

    The per-rule stats are counted by evaluate_rule during its one pass
    over the rule's entries; nothing is traced twice.
    """
    if rules is None:
        rules = builtin_rules()
    _check_risk_ids(rules)
    all_findings = []
    stats = {}
    for rule in rules:
        stats[rule.risk_id] = {}
        all_findings.extend(evaluate_rule(graph, rule, stats[rule.risk_id]))
    all_findings.sort(key=lambda f: (f.risk_id, f.entry))
    return AuditReport(graph_digest=graph.digest(), findings=all_findings, stats=stats)


# ===========================================================================
# the builtin pack
# ===========================================================================

_UNTRUSTED = AttrCmp("trust_level", "==", "untrusted")
_INTEGRITY_INVALID = AttrCmp("integrity_status", "==", "invalid")
_INTEGRITY_UNVERIFIED = AttrCmp("integrity_status", "==", "unverified")
_AUTH_BAD = Or([
    AttrCmp("authentication_status", "==", "unauthenticated"),
    AttrCmp("authentication_status", "==", "invalid"),
])
_SHARES_ENTRY_FLAG = AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags"))
_BAD_PROPAGATION_EDGE = And([
    KindIs(_PROPAGATION_KIND_NAMES),
    Or([_INTEGRITY_INVALID, _AUTH_BAD]),
])
_STATE_CHANGE = And([
    KindIs(("ObservationNode",)),
    AttrCmp("environment_state_change", "!=", ""),
])
_BYPASSED_ACTION = And([
    KindIs(("ActionNode",)),
    AttrCmp("confirmation_status", "==", "bypassed"),
])


def _builtin(risk_id, entry, back, fwd, *path_clauses) -> AuditRule:
    """A builtin rule. Its entry, back_origin and fwd_terminus clauses are
    exists-clauses over the selector predicate and the path terminals, so
    only the path-scope clauses are written out; clauses go in scope order."""
    anchors = (("entry", entry.predicate), ("back_origin", back.terminal),
               ("fwd_terminus", fwd.terminal))
    clauses = [Clause(scope, "exists", pred) for scope, pred in anchors
               if pred is not None]
    clauses += path_clauses
    clauses.sort(key=lambda c: CLAUSE_SCOPES.index(c.scope))
    return AuditRule(risk_id, RISK_NAMES[risk_id], entry, back, fwd, clauses)


def _rule_goal_hijack() -> AuditRule:
    return _builtin(
        "ASI01",
        EntrySelector("node", ("GoalNode",), HasFlag()),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution", "reads_from"),
            terminal=Or([_UNTRUSTED, _AUTH_BAD, HasFlag()]),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("evolution",),
            terminal=And([
                KindIs(("DecisionNode", "ActionNode")), _SHARES_ENTRY_FLAG,
            ]),
        ),
    )


def _rule_tool_misuse() -> AuditRule:
    return _builtin(
        "ASI02",
        EntrySelector("node", ("ToolNode",), NeighborMatch(
            "in", ("invokes",), node=HasFlag(("destructive_command",))
        )),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("invokes", "evolution", "reads_from", "writes_to"),
            terminal=HasFlag(),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("invokes", "evolution"),
            terminal=_STATE_CHANGE,
        ),
    )


def _rule_privilege_abuse() -> AuditRule:
    return _builtin(
        "ASI03",
        EntrySelector("node", ("ReasoningNode",),
                      HasFlag(("privilege_claim", "confirmation_bypass"))),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution", "reads_from"),
            terminal=Or([
                And([
                    KindIs(("ActionNode",)),
                    AttrCmp("type", "==", "memory_write"),
                    HasFlag(),
                ]),
                And([KindIs(("LongTermMemoryNode",)), HasFlag()]),
                And([KindIs(("ContextNode",)), HasFlag()]),
            ]),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("evolution",),
            terminal=_BYPASSED_ACTION,
        ),
    )


def _rule_supply_chain() -> AuditRule:
    return _builtin(
        "ASI04",
        EntrySelector(
            "node",
            ("ToolNode", "SkillNode", "PromptNode", "LLMNode", "CodeNode"),
            Or([HasFlag(), _UNTRUSTED, _INTEGRITY_INVALID, _INTEGRITY_UNVERIFIED]),
        ),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("depends_on",),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=(
                "selects", "invokes", "loads_tool", "loads_skill",
                "flows_to", "influences", "emits",
            ),
            terminal=KindIs(("DecisionNode", "ActionNode", "ObservationNode")),
        ),
        Clause(
            "fwd_path",
            "exists",
            KindIs(("selects", "loads_tool", "loads_skill", "invokes")),
        ),
    )


def _rule_code_execution() -> AuditRule:
    return _builtin(
        "ASI05",
        EntrySelector("node", ("ToolNode",), NeighborMatch(
            "in", ("invokes",), node=HasFlag(("external_code_execution",))
        )),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("invokes", "evolution", "reads_from", "selects"),
            terminal=HasFlag(),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("invokes", "evolution"),
            terminal=_STATE_CHANGE,
        ),
    )


def _rule_memory_poisoning() -> AuditRule:
    return _builtin(
        "ASI06",
        EntrySelector("node", ("ActionNode", "ContextNode"), Or([
            And([
                KindIs(("ActionNode",)),
                AttrCmp("type", "==", "memory_write"),
                HasFlag(),
            ]),
            And([KindIs(("ContextNode",)), HasFlag(), _INTEGRITY_INVALID]),
        ])),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution",),
            # the origin test is deliberately trust/integrity only: a flagged
            # write whose source chain is trusted and intact is handled by
            # other rules
            terminal=Or([_UNTRUSTED, _INTEGRITY_INVALID]),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("writes_to", "reads_from", "evolution"),
            terminal=And([
                KindIs(("ContextNode", "ReasoningNode", "DecisionNode", "ActionNode")),
                _SHARES_ENTRY_FLAG,
            ]),
        ),
    )


def _rule_insecure_communication() -> AuditRule:
    return _builtin(
        "ASI07",
        EntrySelector("edge", ("propagation",), Or([
            _INTEGRITY_INVALID,
            _AUTH_BAD,
            AttrCmp("propagation_status", "==", "tampered"),
        ])),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution", "reads_from"),
            cross_agent=True,
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("evolution", "reads_from", "propagation"),
            terminal=And([
                KindIs((
                    "ContextNode", "GoalNode", "ReasoningNode", "DecisionNode",
                    "ActionNode",
                )),
                _SHARES_ENTRY_FLAG,
            ]),
            cross_agent=True,
        ),
        # the tampered content cannot be mapped to anything the sender
        # actually produced upstream
        Clause(
            "back_path",
            "forall",
            Not(AttrCmp("content", "==", EntryAttr("content"))),
        ),
    )


def _rule_cascading_failure() -> AuditRule:
    return _builtin(
        "ASI08",
        EntrySelector("edge", ("propagation",), HasFlag()),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution", "reads_from", "propagation"),
            cross_agent=True,
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("evolution", "reads_from", "propagation"),
            terminal=And([
                KindIs((
                    "GoalNode", "ContextNode", "DecisionNode", "ActionNode",
                    "OutputNode",
                )),
                _SHARES_ENTRY_FLAG,
            ]),
            cross_agent=True,
        ),
        # the fault must already have crossed an agent boundary upstream
        Clause("back_path", "exists", _BAD_PROPAGATION_EDGE),
    )


def _rule_trust_exploitation() -> AuditRule:
    return _builtin(
        "ASI09",
        EntrySelector("node", ("ExternalNode", "ObservationNode"),
                      HasFlag(("confirmation_bypass", "privilege_claim"))),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("evolution", "reads_from", "propagation"),
            cross_agent=True,
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("evolution", "reads_from", "writes_to", "propagation"),
            terminal=_BYPASSED_ACTION,
            cross_agent=True,
        ),
        Clause("back_path", "exists", _SHARES_ENTRY_FLAG),
    )


def _rule_rogue_agent() -> AuditRule:
    anomalous = Or([HasFlag(), _UNTRUSTED, _INTEGRITY_INVALID])
    return _builtin(
        "ASI10",
        EntrySelector(
            "node", ("AgentNode", "PromptNode", "CodeNode", "LLMNode"), Or([
                anomalous,
                NeighborMatch(
                    "out",
                    ("has_prompt", "uses_model", "depends_on", "loads_tool",
                     "loads_skill"),
                    node=anomalous,
                ),
            ]),
        ),
        PathSpec(
            direction=BACKWARD,
            allowed_edge_kinds=("structural",),
            terminal=And([LayerIs("static"), anomalous]),
        ),
        PathSpec(
            direction=FORWARD,
            allowed_edge_kinds=("structural", "propagation"),
            terminal=KindIs(("AgentNode",)),
            cross_agent=True,
        ),
        Clause("fwd_path", "exists", KindIs(_PROPAGATION_KIND_NAMES)),
    )


def builtin_rules() -> list:
    """The ten-risk pack, in risk id order."""
    return [
        _rule_goal_hijack(),
        _rule_tool_misuse(),
        _rule_privilege_abuse(),
        _rule_supply_chain(),
        _rule_code_execution(),
        _rule_memory_poisoning(),
        _rule_insecure_communication(),
        _rule_cascading_failure(),
        _rule_trust_exploitation(),
        _rule_rogue_agent(),
    ]
