"""Rule structure validation plus the clause engine on small hand graphs."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest

from agentbom import rules as rules_mod
from agentbom.errors import GraphError, PredicateError, RulePackError
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node, parse_instant
from agentbom.ingestion import TraceEvent, assemble, parse_manifest
from agentbom.predicates import (And, AttrCmp, EntryAttr, HasFlag, KindIs, NeighborMatch, Not,
                                 Or, Predicate)
from agentbom.rules import (
    RISK_IDS,
    RISK_NAMES,
    AuditRule,
    Clause,
    EntrySelector,
    audit,
    builtin_rules,
    dump_rules,
    evaluate_rule,
    load_rules,
    locate_entries,
)
from agentbom.scenarios import generate
from agentbom.schema import EdgeKind, Layer, NodeKind
from agentbom.traversal import BACKWARD, FORWARD, PathSpec

from _oracles import (
    as_reported,
    enumerate_paths,
    random_graph,
    random_spec_params,
    side_oracle,
    spec_params,
    stopped_paths,
    witnesses,
)

ALWAYS = Not(AttrCmp("no_such_attribute", "==", "x"))


def _rt(node_id, kind, minute, **attrs):
    return Node(node_id=node_id, kind=kind, agent_id="a1", trace_id="t1",
                timestamp=f"2026-03-01T09:{minute:02d}:00Z", attributes=attrs)


def _chain():
    """ext -> goal -> ctx -> rea -> dec -> act -> obs -> out, all flows_to,
    one minute apart."""
    g = AgentBomGraph()
    g.add_agent(AgentDescriptor("a1", "worker", ""))
    g.add_node(_rt("ext", NodeKind.EXTERNAL, 0, trust_level="untrusted",
                   danger_flags=["seed"]))
    g.add_node(_rt("goal", NodeKind.GOAL, 1))
    g.add_node(_rt("ctx", NodeKind.CONTEXT, 2))
    g.add_node(_rt("rea", NodeKind.REASONING, 3))
    g.add_node(_rt("dec", NodeKind.DECISION, 4, danger_flags=["seed"]))
    g.add_node(_rt("act", NodeKind.ACTION, 5, danger_flags=["seed"]))
    g.add_node(_rt("obs", NodeKind.OBSERVATION, 6,
                   environment_state_change="sandbox wiped"))
    g.add_node(_rt("out", NodeKind.OUTPUT, 7))
    order = ["ext", "goal", "ctx", "rea", "dec", "act", "obs", "out"]
    for i in range(len(order) - 1):
        g.add_edge(Edge(f"e{i + 1}", EdgeKind.FLOWS_TO, order[i], order[i + 1]))
    g.freeze()
    return g


def _rule(conditions, back=None, fwd=None, entry=None):
    return AuditRule(
        risk_id="T01",
        name="test_rule",
        entry=entry or EntrySelector("node", ("ActionNode",), HasFlag()),
        back=back or PathSpec(BACKWARD, ("evolution",)),
        fwd=fwd or PathSpec(FORWARD, ("evolution",)),
        conditions=conditions,
    )


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


def test_entry_selector_rejects_bad_shapes():
    with pytest.raises(RulePackError):
        EntrySelector("cluster", ("ActionNode",))
    with pytest.raises(RulePackError):
        EntrySelector("node", ())


def test_clause_rejects_unknown_scope_and_quantifier():
    with pytest.raises(RulePackError):
        Clause("sideways", "exists", ALWAYS)
    with pytest.raises(RulePackError):
        Clause("entry", "most", ALWAYS)


def test_rule_invariants():
    entry_only = [Clause("entry", "exists", HasFlag())]
    with pytest.raises(RulePackError):
        _rule([])
    with pytest.raises(RulePackError):
        _rule([Clause("back_origin", "exists", ALWAYS)])  # no entry clause
    with pytest.raises(RulePackError):
        _rule(entry_only)  # no directional clause
    with pytest.raises(RulePackError):
        _rule(
            entry_only + [Clause("back_origin", "exists", ALWAYS)],
            back=PathSpec(FORWARD, ("evolution",)),
        )


def test_rule_from_dict_reports_missing_fields():
    with pytest.raises(RulePackError, match="missing field"):
        AuditRule.from_dict({"risk_id": "X", "entry": {
            "element_class": "node", "kinds": ["ActionNode"]}})


def test_load_rules_accepts_both_container_shapes():
    pack = dump_rules(builtin_rules())
    wrapped = load_rules(pack)
    assert len(wrapped) == 10
    bare = load_rules(pack.replace('{\n  "rules": ', "", 1).rstrip()[:-1])
    assert [r.risk_id for r in bare] == [r.risk_id for r in wrapped]


def test_load_rules_rejects_junk():
    with pytest.raises(RulePackError):
        load_rules("not json {")
    with pytest.raises(RulePackError):
        load_rules("{}")
    with pytest.raises(RulePackError):
        load_rules("[]")


def test_a_repeated_risk_id_is_rejected_by_load_rules_and_audit(graphs):
    # a report keys its stats by risk_id: the second rule's would replace the first's
    asi02, asi06 = (r for r in builtin_rules() if r.risk_id in ("ASI02", "ASI06"))
    renamed = json.loads(dump_rules([asi06]))["rules"][0]
    renamed["risk_id"] = "ASI02"
    pack = json.loads(dump_rules([asi02]))["rules"] + [renamed]
    with pytest.raises(RulePackError) as raised:
        load_rules(json.dumps(pack))
    assert str(raised.value) == "rule risk_id 'ASI02' appears twice"
    with pytest.raises(RulePackError, match="^rule risk_id 'ASI02' appears twice$"):
        audit(graphs["memory_poisoning_tool_misuse"], [asi02, asi02])
    assert load_rules(json.dumps(pack[:1]))[0].risk_id == "ASI02"


_ASI01 = json.loads(dump_rules(builtin_rules()[:1]))["rules"][0]


@pytest.mark.parametrize("field, value, side", [
    ("risk_id", 1, None),
    ("name", 5, None),
    ("cross_agent", "false", "back"),
    ("cross_agent", 0, "fwd"),
    ("max_depth", True, "back"),
    ("max_depth", 0, "fwd"),
    ("max_depth", -3, "back"),
    ("direction", "sideways", "fwd"),
])
def test_load_rules_rejects_mistyped_fields(field, value, side):
    rule = dict(_ASI01)
    if side is None:
        rule[field] = value
    else:
        rule[side] = dict(rule[side], **{field: value})
    with pytest.raises(RulePackError, match=field):
        load_rules(json.dumps([rule]))


@pytest.mark.parametrize("part, fields, kind, error", [
    ("entry", {"kinds": ["GadgetNode"]}, "GadgetNode", RulePackError),
    ("entry", {"element_class": "edge", "kinds": ["teleports"]}, "teleports", RulePackError),
    ("back", {"edge_kinds": ["teleports"]}, "teleports", RulePackError),
    ("fwd", {"node_kinds": ["GadgetNode"]}, "GadgetNode", RulePackError),
    ("entry", {"predicate": {"op": "kind", "any_of": ["GadgetNode"]}}, "GadgetNode",
     PredicateError),
    ("fwd", {"terminal": {"op": "neighbor", "direction": "in", "edge_kinds": ["teleports"]}},
     "teleports", PredicateError),
])
def test_an_unknown_kind_in_a_rule_pack_is_a_rule_error(part, fields, kind, error):
    """Not the graph's UnknownKindError: the rule pack is at fault, and the
    message names the rule, or the predicate, and the kind."""
    rule = dict(_ASI01, **{part: dict(_ASI01[part], **fields)})
    with pytest.raises(error) as raised:
        load_rules(json.dumps([rule]))
    assert not isinstance(raised.value, GraphError)
    assert repr(kind) in str(raised.value)
    if error is RulePackError:
        assert str(raised.value).startswith("rule 'ASI01': ")


def test_builtin_pack_shape_and_round_trip():
    rules = builtin_rules()
    assert [r.risk_id for r in rules] == list(RISK_IDS)
    assert all(r.name == RISK_NAMES[r.risk_id] for r in rules)
    reloaded = load_rules(dump_rules(rules))
    assert [r.to_dict() for r in reloaded] == [r.to_dict() for r in rules]


# ---------------------------------------------------------------------------
# the engine on a hand-built chain
# ---------------------------------------------------------------------------


def test_finding_reports_both_directions_with_evidence():
    g = _chain()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_origin", "exists", AttrCmp("trust_level", "==", "untrusted")),
            Clause("fwd_terminus", "exists", KindIs(("ObservationNode",))),
        ],
        back=PathSpec(BACKWARD, ("evolution",),
                      terminal=AttrCmp("trust_level", "==", "untrusted")),
        fwd=PathSpec(FORWARD, ("evolution",),
                     terminal=KindIs(("ObservationNode",))),
    )
    assert locate_entries(g, rule) == ["act"]
    findings = evaluate_rule(g, rule)
    assert [f.entry for f in findings] == ["act"]
    act = findings[0]
    assert act.back_paths[0].elements == (
        "ext", "e1", "goal", "e2", "ctx", "e3", "rea", "e4", "dec", "e5", "act",
    )
    assert act.fwd_paths[0].elements == ("act", "e6", "obs")
    assert act.trace_id == "t1"
    assert act.agents_involved == ["a1"]
    assert act.phase_label == "runtime"
    by_clause = {}
    for item in act.evidence:
        by_clause.setdefault(item.clause_index, []).append(item)
    assert [i.element_id for i in by_clause[0]] == ["act"]
    assert by_clause[0][0].attributes == {"danger_flags": ["seed"]}
    assert [i.element_id for i in by_clause[1]] == ["ext"]
    assert by_clause[1][0].attributes == {"trust_level": "untrusted"}
    assert [i.element_id for i in by_clause[2]] == ["obs"]
    assert by_clause[2][0].attributes == {}
    assert act.element_ids() == {
        "ext", "e1", "goal", "e2", "ctx", "e3", "rea", "e4", "dec", "e5",
        "act", "e6", "obs",
    }


def test_reported_back_paths_are_maximal():
    g = _chain()
    # no terminal: every prefix is traced; keeping asks only that the path
    # touch some flagged element, which depths 1..5 all do
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_path", "exists", HasFlag()),
        ],
        entry=EntrySelector("node", ("ActionNode", "DecisionNode"), HasFlag()),
    )
    findings = evaluate_rule(g, rule)
    assert [f.entry for f in findings] == ["act", "dec"]  # sorted by entry
    finding = findings[0]
    assert len(finding.back_paths) == 1
    assert finding.back_paths[0].origin == "ext"
    assert finding.back_paths[0].depth == 5


def test_reported_fwd_paths_are_minimal():
    g = _chain()
    rule = _rule([
        Clause("entry", "exists", HasFlag()),
        Clause("fwd_path", "exists", KindIs(("ObservationNode",))),
    ])
    finding = [f for f in evaluate_rule(g, rule) if f.entry == "act"][0]
    # both act->obs and act->obs->out satisfy the clause; only the shorter
    # one is the realized impact
    assert len(finding.fwd_paths) == 1
    assert finding.fwd_paths[0].elements == ("act", "e6", "obs")


def test_exists_over_empty_scope_fails_the_rule():
    g = _chain()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("fwd_terminus", "exists", ALWAYS),
        ],
        fwd=PathSpec(FORWARD, ("writes_to",)),  # chain has none
    )
    assert locate_entries(g, rule) == ["act"]
    assert evaluate_rule(g, rule) == []


def test_forall_over_empty_scope_is_vacuous():
    g = _chain()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_origin", "exists", AttrCmp("trust_level", "==", "untrusted")),
            Clause("fwd_path", "forall", HasFlag()),
        ],
        back=PathSpec(BACKWARD, ("evolution",),
                      terminal=AttrCmp("trust_level", "==", "untrusted")),
        fwd=PathSpec(FORWARD, ("writes_to",)),
    )
    findings = evaluate_rule(g, rule)
    assert [f.entry for f in findings] == ["act"]
    assert findings[0].fwd_paths == []


def test_forall_records_every_scope_element_and_skips_the_entry():
    g = _chain()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_path", "forall", ALWAYS),
        ],
        back=PathSpec(BACKWARD, ("evolution",),
                      terminal=AttrCmp("trust_level", "==", "untrusted")),
    )
    finding = [f for f in evaluate_rule(g, rule) if f.entry == "act"][0]
    covered = [i.element_id for i in finding.evidence if i.clause_index == 1]
    assert "act" not in covered
    assert set(covered) == {
        "ext", "e1", "goal", "e2", "ctx", "e3", "rea", "e4", "dec", "e5",
    }


def test_edge_entries_take_the_propagation_phase_label():
    g = AgentBomGraph()
    g.add_agent(AgentDescriptor("a1", "sender", ""))
    g.add_agent(AgentDescriptor("a2", "receiver", ""))
    g.add_node(_rt("dec1", NodeKind.DECISION, 1))
    g.add_node(_rt("act1", NodeKind.ACTION, 2))
    g.add_node(Node(node_id="ext2", kind=NodeKind.EXTERNAL, agent_id="a2",
                    trace_id="t1", timestamp="2026-03-01T09:09:00Z"))
    g.add_edge(Edge("e1", EdgeKind.FLOWS_TO, "dec1", "act1"))
    g.add_edge(Edge("m1", EdgeKind.SENDS_TO, "act1", "ext2",
                    attributes={"danger_flags": ["leak"], "trace_id": "t9"}))
    g.freeze()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_origin", "exists", KindIs(("DecisionNode",))),
        ],
        entry=EntrySelector("edge", ("propagation",), HasFlag()),
        back=PathSpec(BACKWARD, ("evolution",), cross_agent=True),
        fwd=PathSpec(FORWARD, ("evolution",), cross_agent=True),
    )
    findings = evaluate_rule(g, rule)
    assert [f.entry for f in findings] == ["m1"]
    assert findings[0].phase_label == "propagation"
    assert findings[0].trace_id == "t9"
    # backward from an edge anchors at its source node
    assert findings[0].back_paths[0].elements == ("dec1", "e1", "act1")
    assert findings[0].agents_involved == ["a1"]


def test_audit_report_shape_and_stats():
    g = _chain()
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_origin", "exists", AttrCmp("trust_level", "==", "untrusted")),
        ],
        back=PathSpec(BACKWARD, ("evolution",),
                      terminal=AttrCmp("trust_level", "==", "untrusted")),
    )
    report = audit(g, [rule])
    assert report.graph_digest == g.digest()
    assert report.risk_ids() == ["T01"]
    assert set(report.stats) == {"T01"}
    stat = report.stats["T01"]
    assert set(stat) == {"entries", "paths_explored", "findings"}
    assert stat["entries"] == 1 and stat["findings"] == 1
    assert stat["paths_explored"] > 0
    assert report.to_json().endswith("\n")
    assert report.to_json() == audit(g, [rule]).to_json()


def test_builtin_pack_against_the_scenario_corpus(graphs, fixtures):
    benign = audit(graphs["benign_baseline"])
    assert benign.findings == []
    poisoned = audit(graphs["memory_poisoning_tool_misuse"])
    assert poisoned.risk_ids() == ["ASI02", "ASI06"]
    for finding in poisoned.findings:
        assert finding.risk_name == RISK_NAMES[finding.risk_id]
        assert finding.trace_id
        assert finding.agents_involved


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def _random_path_clause(rng):
    scope = rng.choice(("back_origin", "back_path", "fwd_terminus", "fwd_path"))
    names = [k.value for k in NodeKind] + [k.value for k in EdgeKind]
    predicate = rng.choice((
        HasFlag(),
        HasFlag(("flag_a",)),
        KindIs(tuple(rng.sample(names, 12))),
        AttrCmp("trust_level", "==", "untrusted"),
        AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags")),
        Not(KindIs(tuple(rng.sample(names, 6)))),
    ))
    return Clause(scope, "exists", predicate)


def _random_spec(rng, graph, direction):
    params = random_spec_params(rng, graph)
    return PathSpec(
        direction=direction,
        allowed_edge_kinds=frozenset(params["edge_kinds"]),
        allowed_node_kinds=params["node_kinds"],
        terminal=params["terminal"],
        max_depth=params["max_depth"],
        cross_agent=params["cross_agent"],
    )


def _holds_alone(graph, clause, entry_id, elements):
    """The clause asked of one path in flow order, restated by hand: the
    origin is the upstream end, the terminus the downstream end, and the
    entry never testifies, not even where a path returns to it."""
    if clause.scope == "back_origin":
        candidates = [elements[0]]
    elif clause.scope == "fwd_terminus":
        candidates = [elements[-1]]
    else:
        candidates = elements
    candidates = [e for e in candidates if e != entry_id]
    entry = graph.element(entry_id)
    return any(clause.predicate.evaluate(graph.element(e), graph=graph, entry=entry)
               for e in candidates)


def _reported(finding):
    """A finding's paths as (elements, count) pairs, side by side."""
    return ([(p.elements, p.count) for p in finding.back_paths],
            [(p.elements, p.count) for p in finding.fwd_paths])


def test_reported_paths_match_the_inclusion_oracle_on_random_graphs():
    """Deepest back paths and nearest forward paths, as reported by
    evaluate_rule, equal the brute-force selection over the enumerated
    paths that satisfy the rule's one path clause on their own: a back
    path is dropped when a kept path extends it from the anchor, and a
    forward walk does not extend a kept path. The report holds one witness
    per endpoint and the number of paths behind it."""
    mismatches = []
    trimmed = findings_seen = counted = 0
    for seed in range(150):
        rng = random.Random(47_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50)
        clause = _random_path_clause(rng)
        if rng.random() < 0.7 or not graph.edges:
            entry = EntrySelector("node", tuple(k.value for k in NodeKind))
        else:
            entry = EntrySelector("edge", tuple(k.value for k in EdgeKind))
        rule = AuditRule(
            risk_id="T01", name="test_rule", entry=entry,
            back=_random_spec(rng, graph, BACKWARD),
            fwd=_random_spec(rng, graph, FORWARD),
            conditions=[Clause("entry", "exists", ALWAYS), clause],
        )
        got = {f.entry: _reported(f) for f in evaluate_rule(graph, rule)}
        want = {}
        for entry_id in locate_entries(graph, rule):
            kept = {BACKWARD: lambda p: True, FORWARD: lambda p: True}
            side = BACKWARD if clause.scope.startswith("back") else FORWARD
            kept[side] = lambda p, e=entry_id: _holds_alone(graph, clause, e, p)
            back, _ = side_oracle(graph, entry_id, spec_params(rule.back),
                                  kept[BACKWARD])
            fwd, _ = side_oracle(graph, entry_id, spec_params(rule.fwd), kept[FORWARD])
            if back if clause.scope.startswith("back") else fwd:
                want[entry_id] = (as_reported(back, BACKWARD),
                                  as_reported(fwd, FORWARD))
                for spec, chosen in ((rule.back, back), (rule.fwd, fwd)):
                    every = enumerate_paths(graph, entry_id, **spec_params(spec))
                    trimmed += sum(map(kept[spec.direction], every)) - len(chosen)
                counted += len(back) + len(fwd) - sum(map(len, want[entry_id]))
        findings_seen += len(want)
        if got != want:
            mismatches.append(seed)
    assert mismatches == []
    # the selection must actually have had paths to drop, and the report
    # paths to fold into counts
    assert findings_seen > 300 and trimmed > 300 and counted > 100


_QUANTIFIERS = ("exists", "forall")


def _scope_ids(scope, entry_id, back, fwd):
    """A clause scope over every kept element tuple in flow order, sorted
    by (depth, elements), restated by hand: the endpoints in the order of
    their first paths, or the path scope of the report's reduction; the
    entry never testifies for its paths."""
    if scope == "entry":
        return [entry_id]
    if scope == "back_origin":
        ids = [p[0] for p in back]
    elif scope == "back_path":
        ids = witnesses(back, BACKWARD)[2]
    elif scope == "fwd_terminus":
        ids = [p[-1] for p in fwd]
    else:
        ids = witnesses(fwd, FORWARD)[2]
    return [i for i in dict.fromkeys(ids) if i != entry_id]


_BACK_SCOPES = ("back_origin", "back_path")
_FWD_SCOPES = ("fwd_terminus", "fwd_path")


def _oracle_matching(graph, clause, entry_id, back, fwd):
    """(scope ids, the ids among them the clause's predicate accepts), from
    direct predicate calls."""
    entry = graph.element(entry_id)
    scope = _scope_ids(clause.scope, entry_id, back, fwd)
    return scope, [i for i in scope if clause.predicate.evaluate(
        graph.element(i), graph=graph, entry=entry)]


def _oracle_holds(graph, clause, entry_id, back, fwd):
    scope, matching = _oracle_matching(graph, clause, entry_id, back, fwd)
    return bool(matching) if clause.quantifier == "exists" else matching == scope


def _oracle_keeps(graph, rule, entry_id, scopes):
    """Whether every exists-clause of the scopes holds on an element tuple
    standing alone on both sides."""
    return lambda p: all(
        _oracle_holds(graph, c, entry_id, [p], [p]) for c in rule.conditions
        if c.quantifier == "exists" and c.scope in scopes)


def _oracle_side(graph, rule, entry_id, spec, scopes):
    """(reported element tuples, explored count) of one side, by brute force."""
    return side_oracle(graph, entry_id, spec_params(spec, graph, entry_id),
                       _oracle_keeps(graph, rule, entry_id, scopes))


def _oracle_finding(graph, rule, entry_id):
    """(back witnesses, fwd witnesses, evidence dicts) for one entry, or
    None, from brute-force enumeration and direct predicate calls."""
    back, _ = _oracle_side(graph, rule, entry_id, rule.back, _BACK_SCOPES)
    fwd, _ = _oracle_side(graph, rule, entry_id, rule.fwd, _FWD_SCOPES)
    evidence = []
    for index, clause in enumerate(rule.conditions):
        scope, matching = _oracle_matching(graph, clause, entry_id, back, fwd)
        if clause.quantifier == "exists" and not matching:
            return None
        if clause.quantifier == "forall" and matching != scope:
            return None
        keys = sorted(clause.predicate.referenced_keys())
        for element_id in matching:
            attributes = graph.element(element_id).attributes
            evidence.append({"element": element_id, "clause": index, "attributes":
                             {k: attributes[k] for k in keys if k in attributes}})
    return as_reported(back, BACKWARD), as_reported(fwd, FORWARD), evidence


def test_findings_and_evidence_match_the_oracle_with_mixed_clauses():
    """Two or three clauses, exists and forall over every scope, two of them
    sharing one predicate object: each finding's paths and full evidence
    list equal the oracle's."""
    names = [k.value for k in NodeKind] + [k.value for k in EdgeKind]
    mismatches = []
    findings_seen = multi_clause_evidence = forall_evidence = 0
    for seed in range(150):
        rng = random.Random(53_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50)
        pool = [
            HasFlag(), HasFlag(("flag_a",)), ALWAYS,
            KindIs(tuple(rng.sample(names, 20))),
            Not(KindIs(tuple(rng.sample(names, 6)))),
            Not(AttrCmp("trust_level", "==", "untrusted")),
            AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags")),
        ]
        scopes = ("back_origin", "back_path", "fwd_terminus", "fwd_path")
        clauses = [Clause("entry", rng.choice(_QUANTIFIERS), rng.choice(pool))]
        clauses += [Clause(rng.choice(scopes + ("entry",)) if i else rng.choice(scopes),
                           rng.choice(_QUANTIFIERS), rng.choice(pool))
                    for i in range(rng.randint(1, 2))]
        shared = rng.sample(range(len(clauses)), 2)
        clauses[shared[1]].predicate = clauses[shared[0]].predicate
        rng.shuffle(clauses)
        if rng.random() < 0.7 or not graph.edges:
            entry = EntrySelector("node", tuple(k.value for k in NodeKind))
            entry_ids = sorted(graph.nodes)
        else:
            entry = EntrySelector("edge", tuple(k.value for k in EdgeKind))
            entry_ids = sorted(graph.edges)
        rule = AuditRule(
            risk_id="T01", name="test_rule", entry=entry,
            back=_random_spec(rng, graph, BACKWARD),
            fwd=_random_spec(rng, graph, FORWARD),
            conditions=clauses,
        )
        got = {f.entry: (*_reported(f), [e.to_dict() for e in f.evidence])
               for f in evaluate_rule(graph, rule)}
        want = {}
        for entry_id in entry_ids:
            finding = _oracle_finding(graph, rule, entry_id)
            if finding is not None:
                want[entry_id] = finding
                evidence = finding[2]
                multi_clause_evidence += len({e["clause"] for e in evidence}) > 1
                forall_evidence += any(rule.conditions[e["clause"]].quantifier
                                       == "forall" and e["element"] != entry_id
                                       for e in evidence)
        findings_seen += len(want)
        if got != want:
            mismatches.append(seed)
    assert mismatches == []
    assert findings_seen > 600 and multi_clause_evidence > 300 and forall_evidence > 150


def _forward_deciding_rule(rng, graph):
    """A random rule whose forward side usually decides it: a rare forward
    terminal or none, one to three exists/forall clauses over fwd_terminus
    and fwd_path, sometimes a backward clause, and an entry clause over
    every node. Returns (rule, entry ids)."""
    names = [k.value for k in NodeKind] + [k.value for k in EdgeKind]
    pool = [
        HasFlag(), HasFlag(("flag_a",)), ALWAYS,
        KindIs(tuple(rng.sample(names, 20))),
        Not(KindIs(tuple(rng.sample(names, 6)))),
        Not(AttrCmp("trust_level", "==", "untrusted")),
        AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags")),
    ]
    clauses = [Clause("entry", "exists", rng.choice((ALWAYS, ALWAYS, HasFlag())))]
    clauses += [Clause(rng.choice(_FWD_SCOPES), rng.choice(_QUANTIFIERS), rng.choice(pool))
                for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        clauses.append(Clause(rng.choice(_BACK_SCOPES), rng.choice(_QUANTIFIERS),
                              rng.choice(pool)))
    rng.shuffle(clauses)
    fwd = _random_spec(rng, graph, FORWARD)
    fwd.terminal = rng.choice((
        HasFlag(("flag_a",)),
        KindIs(tuple(rng.sample([k.value for k in NodeKind], 4))),
        None,
    ))
    rule = AuditRule(
        risk_id="T01", name="test_rule",
        entry=EntrySelector("node", tuple(k.value for k in NodeKind)),
        back=_random_spec(rng, graph, BACKWARD), fwd=fwd, conditions=clauses,
    )
    return rule, sorted(graph.nodes)


def _proper_prefixes(elements):
    """The proper prefixes of a forward path that are paths themselves."""
    return (elements[:end] for end in range(3, len(elements), 2))


def _oracle_sides(graph, rule, entry_id):
    """(entry clauses hold, every forward path, its kept paths, the forward
    clauses hold over the nearest kept paths) for one entry."""
    traced = enumerate_paths(graph, entry_id, **spec_params(rule.fwd, graph, entry_id))
    kept = list(filter(_oracle_keeps(graph, rule, entry_id, _FWD_SCOPES), traced))
    nearest, _ = _oracle_side(graph, rule, entry_id, rule.fwd, _FWD_SCOPES)
    return (
        all(_oracle_holds(graph, c, entry_id, [], []) for c in rule.conditions
            if c.scope == "entry"),
        traced,
        kept,
        all(_oracle_holds(graph, c, entry_id, [], nearest) for c in rule.conditions
            if c.scope in _FWD_SCOPES),
    )


def test_findings_match_the_oracle_where_the_forward_side_decides():
    """Each finding's paths and evidence equal the oracle's, which traces
    both sides in full. The cases that let an audit stop early must occur:
    entries whose forward side fails while backward paths exist, forward
    paths that run on past a terminal path that is not kept, and forward
    paths that extend a kept one."""
    mismatches = []
    findings_seen = forward_failed = past_unkept = past_kept = 0
    for seed in range(150):
        rng = random.Random(59_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50)
        rule, entry_ids = _forward_deciding_rule(rng, graph)
        got = {f.entry: (*_reported(f), [e.to_dict() for e in f.evidence])
               for f in evaluate_rule(graph, rule)}
        want = {}
        for entry_id in entry_ids:
            finding = _oracle_finding(graph, rule, entry_id)
            if finding is not None:
                want[entry_id] = finding
            entry_holds, traced, kept, fwd_holds = _oracle_sides(graph, rule, entry_id)
            unkept = set(traced) - set(kept)
            past_unkept += sum(any(q in unkept for q in _proper_prefixes(p))
                               for p in traced)
            past_kept += sum(any(q in kept for q in _proper_prefixes(p))
                             for p in traced)
            if entry_holds and not fwd_holds and enumerate_paths(
                    graph, entry_id, **spec_params(rule.back, graph, entry_id)):
                forward_failed += 1
        findings_seen += len(want)
        if got != want:
            mismatches.append(seed)
    assert mismatches == []
    assert findings_seen > 300 and forward_failed > 300
    assert past_unkept > 3000 and past_kept > 500


def test_paths_explored_counts_the_paths_the_traces_return():
    """Restated by hand: no path for an entry whose entry clauses fail;
    otherwise the forward paths left when a full walk stops at kept paths,
    plus every backward path when the forward clauses hold."""
    mismatches = []
    skipped_entries = skipped_back = 0
    for seed in range(150):
        rng = random.Random(61_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50)
        rule, entry_ids = _forward_deciding_rule(rng, graph)
        stats = {}
        evaluate_rule(graph, rule, stats)
        want = 0
        for entry_id in entry_ids:
            entry_holds, traced, kept, fwd_holds = _oracle_sides(graph, rule, entry_id)
            if not entry_holds:
                skipped_entries += 1
                continue
            want += len(stopped_paths(traced, FORWARD, set(kept).__contains__))
            if fwd_holds:
                want += len(enumerate_paths(
                    graph, entry_id, **spec_params(rule.back, graph, entry_id)))
            else:
                skipped_back += 1
        if stats["paths_explored"] != want:
            mismatches.append(seed)
    assert mismatches == []
    assert skipped_entries > 300 and skipped_back > 300


def _entry_reading_rule(rng, graph):
    """A random rule over every node whose path terminals read the entry's
    danger flags or trust level, with node-kind-filtered specs; its endpoint
    clauses are often its terminals, as in the builtin pack, and its other
    clauses exists or forall over a pool that reads the entry too."""
    node_names = [k.value for k in NodeKind]
    names = node_names + [k.value for k in EdgeKind]
    shares_flag = AttrCmp("danger_flags", "intersects", EntryAttr("danger_flags"))
    terminals = (
        shares_flag,
        And([KindIs(tuple(rng.sample(node_names, 10))), shares_flag]),
        Or([KindIs(tuple(rng.sample(node_names, 4))),
            AttrCmp("trust_level", "==", EntryAttr("trust_level"))]),
        Not(shares_flag),
    )
    pool = [HasFlag(), ALWAYS, KindIs(tuple(rng.sample(names, 20))), shares_flag,
            Not(shares_flag), AttrCmp("trust_level", "==", EntryAttr("trust_level"))]
    specs = {}
    for direction in (BACKWARD, FORWARD):
        params = random_spec_params(rng, graph)
        specs[direction] = PathSpec(
            direction=direction,
            allowed_edge_kinds=frozenset(params["edge_kinds"]),
            allowed_node_kinds=(rng.sample(node_names, 8) if rng.random() < 0.8
                                else None),
            terminal=rng.choice(terminals),
            max_depth=rng.randint(2, 5),
            cross_agent=params["cross_agent"],
        )
    clauses = [Clause("entry", "exists", rng.choice((ALWAYS, ALWAYS, HasFlag())))]
    for scope, spec in (("back_origin", specs[BACKWARD]), ("fwd_terminus", specs[FORWARD])):
        if rng.random() < 0.6:
            clauses.append(Clause(scope, "exists", spec.terminal))
    more = rng.randint(0 if len(clauses) > 1 else 1, 2)  # a clause beyond the entry's
    clauses += [Clause(rng.choice(_BACK_SCOPES + _FWD_SCOPES), rng.choice(_QUANTIFIERS),
                       rng.choice(pool)) for _ in range(more)]
    return AuditRule(risk_id="T01", name="test_rule",
                     entry=EntrySelector("node", tuple(node_names)),
                     back=specs[BACKWARD], fwd=specs[FORWARD], conditions=clauses)


def test_entries_that_share_a_rule_evaluation_match_the_oracle_alone():
    """evaluate_rule shares terminal answers, node facts, components and
    moves among the entries of one rule whose terminal reads the same entry
    attribute values, and clause answers likewise. The oracle traces every
    entry alone. Each finding's witnesses, counts and evidence, and the
    rule's paths_explored, equal the oracle's; entries that agree on their
    flags and entries that do not both occur often."""
    mismatches = []
    findings_seen = agreeing = differing = 0
    for seed in range(300):
        rng = random.Random(67_000 + seed)
        graph = random_graph(rng, max_nodes=30, max_edges=50, timed=rng.random() < 0.3)
        rule = _entry_reading_rule(rng, graph)
        stats = {}
        got = {f.entry: (*_reported(f), [e.to_dict() for e in f.evidence])
               for f in evaluate_rule(graph, rule, stats)}
        want, explored, flags = {}, 0, Counter()
        for entry_id in sorted(graph.nodes):
            if not all(_oracle_holds(graph, c, entry_id, [], []) for c in rule.conditions
                       if c.scope == "entry"):
                continue
            attributes = graph.nodes[entry_id].attributes
            flags[repr((attributes.get("danger_flags"), attributes.get("trust_level")))] += 1
            fwd, fwd_explored = _oracle_side(graph, rule, entry_id, rule.fwd, _FWD_SCOPES)
            explored += fwd_explored
            if all(_oracle_holds(graph, c, entry_id, [], fwd) for c in rule.conditions
                   if c.scope in _FWD_SCOPES):
                explored += _oracle_side(graph, rule, entry_id, rule.back, _BACK_SCOPES)[1]
            finding = _oracle_finding(graph, rule, entry_id)
            if finding is not None:
                want[entry_id] = finding
        agreeing += sum(flags.values()) - len(flags)
        differing += len(flags) - 1 if flags else 0
        findings_seen += len(want)
        if got != want or stats["paths_explored"] != explored:
            mismatches.append(seed)
    assert mismatches == []
    assert findings_seen > 350 and agreeing > 2000 and differing > 800


# ---------------------------------------------------------------------------
# work bound
# ---------------------------------------------------------------------------

def _diamond_chain(depth, stamp=None):
    """ext -> goal -> context -> depth reasoning steps -> decision -> action;
    step i refs steps i-1 and i-2, so forward paths grow like the Fibonacci
    numbers. Every step repeats the untrusted input's privilege claim. The
    events are a minute apart, or all at ``stamp`` when it is given."""
    events = []

    def event(event_type, refs=(), **attrs):
        event_id = f"s{len(events):02d}"
        hour, minute = divmod(len(events), 60)
        at = stamp or f"2026-03-01T{10 + hour:02d}:{minute:02d}:00Z"
        events.append(TraceEvent(event_id, "t1", "a", at, event_type,
                                 "acts with full authority", refs=list(refs),
                                 attrs=attrs))
        return event_id

    ext = event("external_input", source="forum://t", trust_level="untrusted")
    steps = [event("context_assembled", refs=[event("goal_formed", refs=[ext])])]
    for _ in range(depth):
        steps.append(event("reasoning_step", refs=steps[-2:]))
    event("action_taken", refs=[event("decision_made", refs=[steps[-1]])])
    return assemble(parse_manifest({"agents": [{"agent_id": "a"}]}), events)


class _Counted(Predicate):
    """Delegates to inner and tallies each call by (use, entry, element)."""

    def __init__(self, inner, tally, use):
        self.inner, self.tally, self.use = inner, tally, use

    def evaluate(self, element, graph=None, entry=None):
        ids = [e.edge_id if isinstance(e, Edge) else e.node_id for e in (entry, element)]
        self.tally[(self.use, *ids)] += 1
        return self.inner.evaluate(element, graph=graph, entry=entry)

    def to_dict(self):
        return self.inner.to_dict()

    def referenced_keys(self):
        return self.inner.referenced_keys()


def test_each_terminal_and_clause_is_asked_once_per_trace_and_entry():
    """Each terminal is evaluated at most once per (trace, node) and each
    clause predicate at most once per (entry, element), on a diamond chain
    whose paths pass through every node many times; the report does not
    change."""
    graph = _diamond_chain(12)
    tally = Counter()
    counted = builtin_rules()
    for rule in counted:
        for spec in (rule.back, rule.fwd):
            if spec.terminal is not None:
                spec.terminal = _Counted(spec.terminal, tally,
                                         (rule.risk_id, spec.direction))
        for index, clause in enumerate(rule.conditions):
            clause.predicate = _Counted(clause.predicate, tally, (rule.risk_id, index))
    report = audit(graph, counted)
    assert report.to_json() == audit(graph).to_json()
    assert report.risk_ids() == ["ASI01"]
    assert sum(p.count for p in report.findings[0].fwd_paths) > 100
    assert sum(tally.values()) > 50
    assert max(tally.values()) == 1


class _CountedByElement(_Counted):
    """A _Counted that says what it reads of the entry, as its inner does."""

    def entry_keys(self):
        return self.inner.entry_keys()


def test_a_rule_evaluation_shares_its_work_among_entries(monkeypatch):
    """ASI03 traces forward from each of the sixteen reasoning steps of a
    diamond chain. Each node's steps are built at most once per side,
    counted by the graph's out_edges and in_edges calls; each (predicate,
    element) is asked at most once, since none of ASI03's terminals and
    clauses reads the entry (the entry selector stays unwrapped, so the
    answers locate_entries records under it are not counted); and the trace
    contexts, one per side, are gone when evaluate_rule returns."""
    graph = _diamond_chain(16)
    rule = next(r for r in builtin_rules() if r.risk_id == "ASI03")
    tally, wrapped = Counter(), {}

    def counted(predicate):
        if predicate not in wrapped:
            wrapped[predicate] = _CountedByElement(predicate, tally, len(wrapped))
        return wrapped[predicate]

    for spec in (rule.back, rule.fwd):
        spec.terminal = counted(spec.terminal)
    for clause in rule.conditions:
        clause.predicate = counted(clause.predicate)

    built = Counter()
    for name in ("out_edges", "in_edges"):
        def edges(node_id, kinds=None, real=getattr(graph, name), name=name):
            built[(name, node_id)] += 1
            return real(node_id, kinds)
        monkeypatch.setattr(graph, name, edges)

    contexts, last = [], {}
    real_trace = rules_mod.trace

    def tracing(graph, start, spec, **kwargs):
        context = kwargs["context"]
        previous = last.get(spec.direction)
        contexts.append((spec.direction, previous is not None and previous() is context))
        last[spec.direction] = weakref.ref(context)
        return real_trace(graph, start, spec, **kwargs)

    monkeypatch.setattr(rules_mod, "trace", tracing)
    stats = {}
    assert evaluate_rule(graph, rule, stats) == []
    assert stats["entries"] == 16
    assert contexts == [(FORWARD, False)] + [(FORWARD, True)] * 15
    assert all(ref() is None for ref in last.values())
    assert len(built) > 30 and max(built.values()) == 1
    asked = Counter()
    for (use, _, element_id), calls in tally.items():
        asked[(use, element_id)] += calls
    assert len(asked) > 20 and max(asked.values()) == 1


def test_the_entry_selector_is_asked_once_per_candidate():
    """ASI06's entry selector is also its entry clause, as in every builtin
    rule. On forty replayed sessions it is asked once of each of the 200
    candidates: locate_entries records each entry's answer in the rule's
    Answers table, and the entry clause reads it there instead of asking
    the 40 entries again. The findings and the paths explored do not
    change."""
    graph = _replay(40)

    def asi06():
        return next(r for r in builtin_rules() if r.risk_id == "ASI06")

    rule, tally = asi06(), Counter()
    selector = rule.entry.predicate
    rule.entry.predicate = _CountedByElement(selector, tally, "selector")
    for clause in rule.conditions:
        if clause.predicate is selector:
            clause.predicate = rule.entry.predicate
    stats, plain_stats = {}, {}
    findings = evaluate_rule(graph, rule, stats)
    plain = evaluate_rule(graph, asi06(), plain_stats)
    assert [f.to_dict() for f in findings] == [f.to_dict() for f in plain]
    assert stats == plain_stats
    assert stats["entries"] == 40 and stats["findings"] == 40
    assert sum(tally.values()) == len(tally) == 200


class _Custom(_Counted):
    """A user predicate that names no entry keys and tallies its calls by
    the combinator it sits under."""

    def evaluate(self, element, graph=None, entry=None):
        self.tally[self.use] += 1
        return self.inner.evaluate(element, graph, entry)


def _under_combinators(predicate, tally):
    """The same test, with a _Custom right under an Or, an And and a Not
    around each atom, and right under NeighborMatch around each of its node
    and edge tests."""
    if isinstance(predicate, (And, Or)):
        return type(predicate)([_under_combinators(p, tally) for p in predicate.parts])
    if isinstance(predicate, Not):
        return Not(_under_combinators(predicate.inner, tally))
    if isinstance(predicate, NeighborMatch):
        node, edge = (None if p is None else _Custom(_under_combinators(p, tally), tally,
                                                     "neighbor")
                      for p in (predicate.node, predicate.edge))
        return NeighborMatch(predicate.direction, predicate.edge_kinds, node, edge)
    negated = Not(_Custom(Not(predicate), tally, "not"))
    return Or([_Custom(And([_Custom(negated, tally, "and")]), tally, "or")])


def test_a_user_predicate_works_under_every_combinator_and_as_an_entry(graphs):
    """A Predicate subclass from outside the library, under And, Or, Not
    and NeighborMatch and as the entry selector, yields the findings of the
    unwrapped pack on every fixture."""
    tally = Counter()
    wrapped = builtin_rules()
    for rule in wrapped:
        rule.entry.predicate = _Custom(_under_combinators(rule.entry.predicate, tally),
                                       tally, "entry")
        for spec in (rule.back, rule.fwd):
            if spec.terminal is not None:
                spec.terminal = _under_combinators(spec.terminal, tally)
        for clause in rule.conditions:
            clause.predicate = _under_combinators(clause.predicate, tally)
    for sid, graph in graphs.items():
        found = audit(graph, wrapped).findings
        assert [f.to_dict() for f in found] == [f.to_dict() for f in audit(graph).findings], sid
    assert sorted(tally) == ["and", "entry", "neighbor", "not", "or"]


# clauses listed out of scope order: a forward-path clause, the entry, the
# backward origin, the forward terminus and a backward-path forall
_UNORDERED_PACK = {"rules": [{
    "risk_id": "T02", "name": "unordered",
    "entry": {"element_class": "node", "kinds": ["ActionNode"],
              "predicate": {"op": "flags"}},
    "back": {"direction": "backward", "edge_kinds": ["evolution"]},
    "fwd": {"direction": "forward", "edge_kinds": ["evolution"]},
    "conditions": [
        {"scope": "fwd_path", "quantifier": "exists",
         "predicate": {"op": "kind", "any_of": ["ObservationNode"]}},
        {"scope": "entry", "quantifier": "exists", "predicate": {"op": "flags"}},
        {"scope": "back_origin", "quantifier": "exists",
         "predicate": {"op": "attr", "key": "trust_level", "cmp": "==",
                       "value": "untrusted"}},
        {"scope": "fwd_terminus", "quantifier": "exists",
         "predicate": {"op": "kind", "any_of": ["OutputNode"]}},
        {"scope": "back_path", "quantifier": "forall",
         "predicate": {"op": "not", "arg": {"op": "kind", "any_of": ["ToolNode"]}}},
    ],
}]}


def test_evidence_of_an_unordered_pack_comes_in_clause_order():
    [rule] = load_rules(json.dumps(_UNORDERED_PACK))
    [finding] = evaluate_rule(_chain(), rule)
    assert finding.entry == "act"
    assert [p.elements for p in finding.fwd_paths] == [("act", "e6", "obs", "e7", "out")]
    assert [(i.element_id, i.clause_index) for i in finding.evidence] == [
        ("obs", 0), ("act", 1), ("ext", 2), ("out", 3),
        *((i, 4) for i in ("ext", "e1", "goal", "e2", "ctx", "e3", "rea", "e4",
                           "dec", "e5")),
    ]
    assert finding.evidence[1].attributes == {"danger_flags": ["seed"]}
    assert finding.evidence[2].attributes == {"trust_level": "untrusted"}


@pytest.mark.parametrize("failing, never_asked", [
    # the entry clause fails: neither side is traced or asked
    (1, {0, 2, 3, 4}),
    # the forward-path clause fails: the backward side is never traced
    (0, {2, 4}),
    # the backward-path forall fails; every other clause was already settled
    (4, set()),
])
def test_clauses_settle_side_by_side_and_stop_at_the_first_failure(failing, never_asked):
    [rule] = load_rules(json.dumps(_UNORDERED_PACK))
    tally = Counter()
    for index, clause in enumerate(rule.conditions):
        inner = Not(ALWAYS) if index == failing else clause.predicate
        clause.predicate = _Counted(inner, tally, index)
    assert evaluate_rule(_chain(), rule) == []
    asked = {use for use, _, _ in tally}
    assert failing in asked
    assert asked.isdisjoint(never_asked)


def test_a_failing_forall_stops_its_side_before_the_next_clause():
    rule = _rule([
        Clause("fwd_path", "forall", Not(ALWAYS)),
        Clause("entry", "exists", HasFlag()),
        Clause("fwd_path", "forall", ALWAYS),
    ])
    tally = Counter()
    for index, clause in enumerate(rule.conditions):
        clause.predicate = _Counted(clause.predicate, tally, index)
    assert evaluate_rule(_chain(), rule) == []
    assert {use for use, _, _ in tally} == {0, 1}
    assert sum(n for (use, _, _), n in tally.items() if use == 0) == 1


def test_each_element_is_tested_for_keeping_once_per_trace(monkeypatch):
    """A trace asks its keep tests of elements, not of paths: on a diamond
    chain, whose paths pass through every node many times, a rule with
    path clauses on both sides has each keep test asked at most once per
    (trace, element)."""
    rule = _rule(
        [
            Clause("entry", "exists", HasFlag()),
            Clause("back_path", "exists", HasFlag()),
            Clause("fwd_terminus", "exists", KindIs(("ActionNode",))),
            Clause("fwd_path", "exists", HasFlag()),
        ],
        entry=EntrySelector("node", ("GoalNode",), HasFlag()),
        back=PathSpec(BACKWARD, ("evolution",)),
        fwd=PathSpec(FORWARD, ("evolution",), terminal=KindIs(("ActionNode",))),
    )
    tally = Counter()
    traces = iter(range(1_000_000))
    real_keep_tests = rules_mod._keep_tests

    def counting_keep_tests(*args):
        tests = real_keep_tests(*args)
        which = next(traces)

        def counted(name, test):
            def ask(element_id):
                tally[(which, name, element_id)] += 1
                return test(element_id)
            return ask

        return {"keep_end": counted("end", tests["keep_end"]),
                "keep_marks": [counted(i, mark)
                               for i, mark in enumerate(tests["keep_marks"])]}

    monkeypatch.setattr(rules_mod, "_keep_tests", counting_keep_tests)
    graph = _diamond_chain(12)
    [finding] = evaluate_rule(graph, rule)
    assert sum(p.count for p in finding.fwd_paths) > 100
    assert len(tally) > 40
    assert max(tally.values()) == 1


def test_audit_traces_only_what_a_report_can_use(monkeypatch):
    """On a diamond chain, ASI03's entries fail on the forward side, so no
    backward path is traced for them, ASI01's forward traces count exactly
    the forward paths it reports, and paths_explored adds up what the
    traces walked."""
    graph = _diamond_chain(12)
    checked = builtin_rules()
    side = {id(spec): (rule.risk_id, spec.direction)
            for rule in checked for spec in (rule.back, rule.fwd)}
    returned = Counter()
    real_trace = rules_mod.trace

    def counting_trace(graph, start, spec, **kwargs):
        result = real_trace(graph, start, spec, **kwargs)
        returned[side[id(spec)]] += sum(p.count for p in result.paths)
        explored[side[id(spec)]] += result.explored
        return result

    explored = Counter()
    monkeypatch.setattr(rules_mod, "trace", counting_trace)
    report = audit(graph, checked)
    asi01 = [f for f in report.findings if f.risk_id == "ASI01"]
    assert report.stats["ASI03"]["entries"] > 0
    assert returned[("ASI03", BACKWARD)] == explored[("ASI03", BACKWARD)] == 0
    assert returned[("ASI01", FORWARD)] == sum(
        p.count for f in asi01 for p in f.fwd_paths) > 100
    assert all(report.stats[risk]["paths_explored"]
               == explored[(risk, BACKWARD)] + explored[(risk, FORWARD)]
               for risk in RISK_IDS)


_UNFLAGGED_DIAMOND = """
import json, sys
from test_rules import _diamond_chain
from agentbom.rules import audit, builtin_rules
rules = [rule for rule in builtin_rules() if rule.risk_id != "ASI01"]
report = audit(_diamond_chain(60, *sys.argv[1:]), rules)
print(json.dumps({"findings": len(report.findings), "stats": report.stats}))
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's
    sources and tests; the caller's path comes last, as pytest may be found
    there."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _audit_unflagged_diamond(*stamp):
    proc = subprocess.run([sys.executable, "-c", _UNFLAGGED_DIAMOND, *stamp], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["findings"] == 0
    stats = result["stats"]
    assert stats["ASI03"]["entries"] == 60 and stats["ASI09"]["entries"] == 1
    assert all(s["paths_explored"] == 0 for s in stats.values())


def test_dead_forward_walks_on_a_deep_diamond_stay_cheap():
    """Without ASI01, a diamond chain of depth 60 leaves only forward walks
    that find nothing: ASI03's from each reasoning step and ASI09's from
    the external input. Re-walking them would take Fibonacci(60) steps, so
    the audit runs in a child process that a timeout ends."""
    _audit_unflagged_diamond()


def test_dead_forward_walks_on_a_deep_diamond_at_one_instant_stay_cheap():
    """The same walks when every event carries one timestamp: the carried
    time then never moves, and paths that reach a step by different routes
    must still share one key, since no route can come back to a step."""
    _audit_unflagged_diamond("2026-03-01T10:00:00Z")


def _asi03_keys(monkeypatch, depth) -> int:
    """The keys ASI03's traces make on the unflagged diamond chain of depth."""
    rule = next(r for r in builtin_rules() if r.risk_id == "ASI03")
    made, traced = [], rules_mod.trace

    def counted(*args, **kwargs):
        result = traced(*args, **kwargs)
        made.append(result.keys)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(rules_mod, "trace", counted)
        assert evaluate_rule(_diamond_chain(depth), rule) == []
    assert len(made) == depth
    return sum(made)


def test_dead_forward_walks_share_their_dead_ends(monkeypatch):
    """ASI03's forward traces from the reasoning steps of a diamond chain
    find nothing. Each trace skips the keys an earlier one found no
    terminal beyond, so the keys they make grow more slowly than the
    square of the depth: the least-squares slope of log keys over log
    depth stays at most 1.8."""
    depths = (8, 12, 16, 24)
    xs = [math.log(depth) for depth in depths]
    ys = [math.log(_asi03_keys(monkeypatch, depth)) for depth in depths]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert slope <= 1.8
    assert _asi03_keys(monkeypatch, 80) <= 7_000


def _replay(sessions):
    """memory_poisoning_tool_misuse replayed as day-apart sessions that
    share its memory store and its exec tool: every session writes the
    poisoned rule and reads it back."""
    base = generate("memory_poisoning_tool_misuse", 0)
    events = []
    for i in range(sessions):
        for event in base.events:
            moment = parse_instant(event.timestamp) + timedelta(days=i)
            events.append(TraceEvent.from_dict({
                **event.to_dict(), "event_id": f"r{i}.{event.event_id}",
                "trace_id": f"r{i}.{event.trace_id}",
                "timestamp": moment.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "refs": [f"r{i}.{ref}" for ref in event.refs]}))
    return assemble(base.manifest, events)


def _backward_in_time(graph, path):
    """The steps of a reported path, in flow order, from a timestamped
    element to an earlier one: runtime nodes and edges carry time."""
    stamps = []
    for element_id in path.elements:
        element = graph.element(element_id)
        if element.timestamp and (element_id in graph.edges
                                  or element.layer is Layer.RUNTIME):
            stamps.append(parse_instant(element.timestamp))
    return sum(b < a for a, b in zip(stamps, stamps[1:]))


def test_reported_paths_on_a_replay_run_forward_in_time():
    """Three sessions share one memory store and one tool. Every path the
    audit reports keeps its timestamps in flow order, although the store
    and the tool join each session to the others both ways."""
    graph = _replay(3)
    report = audit(graph)
    paths = [p for f in report.findings for p in f.back_paths + f.fwd_paths]
    assert report.risk_ids() == ["ASI02", "ASI06"]
    assert len(paths) > 10
    assert sum(_backward_in_time(graph, p) for p in paths) == 0
    # a poisoned write reaches the reads of its own and later sessions only
    reads = {f.entry: sorted(p.terminus for p in f.fwd_paths)
             for f in report.findings if f.risk_id == "ASI06"}
    assert reads["r1.act.assistant.06"] == ["r1.ctx.assistant.11", "r2.ctx.assistant.11"]
    # and the store and the tool join sessions into more paths than witnesses
    assert any(p.count > 1 for p in paths)


_SCALING = """
import json, sys, time
from test_rules import _diamond_chain, _replay
from agentbom.rules import audit
out = {}
for name, graph in (("diamond16", _diamond_chain(16)), ("diamond24", _diamond_chain(24)),
                    ("replay160", _replay(160))):
    started = time.perf_counter()
    report = audit(graph)
    report.to_json()
    out[name] = {"seconds": time.perf_counter() - started,
                 "witnesses": sum(len(f.back_paths) + len(f.fwd_paths)
                                  for f in report.findings),
                 "asi06_fwd": sum(len(f.fwd_paths) for f in report.findings
                                  if f.risk_id == "ASI06"),
                 "paths": sum(p.count for f in report.findings
                              for p in f.back_paths + f.fwd_paths)}
print(json.dumps(out))
"""


def test_witness_reports_grow_with_endpoints_not_paths():
    """Forward paths on a diamond chain grow like the Fibonacci numbers and
    replayed sessions multiply the paths through the shared store, but the
    report holds one witness per endpoint. The audits run in a child
    process that a timeout ends, so only an exponential regression fails
    here; the times are printed (run with -s to see them)."""
    proc = subprocess.run([sys.executable, "-c", _SCALING], env=_child_env(),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    print({name: round(r["seconds"], 3) for name, r in result.items()})
    assert result["diamond16"]["witnesses"] == result["diamond24"]["witnesses"]
    assert result["diamond24"]["paths"] > 40 * result["diamond16"]["paths"]
    # ASI06: session i's poisoned write reaches the reads of sessions i..n
    n = 160
    assert result["replay160"]["asi06_fwd"] == n * (n + 1) // 2
