"""The acceptance gauntlet for the whole pipeline.

Eight checks, one test each, in a fixed order: scenario replay, benign
silence, traversal versus brute force, edge insertion versus each edge
kind's endpoint kinds, finding self-verification, evidence ablation, byte
determinism, and the builtin entry anchors. Every test prints a single PASS line with
its numbers when it succeeds (run with -s to see them).
"""

from __future__ import annotations

import random
import time

import pytest

from agentbom import schema
from agentbom.dot import finding_to_dot, to_dot
from agentbom.errors import EndpointKindError
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.rules import audit, builtin_rules
from agentbom.scenarios import SCENARIO_IDS, generate
from agentbom.schema import EdgeKind, Layer, NodeKind
from agentbom.traversal import PathSpec, trace

from _fixture_edits import without_node
from _oracles import (
    enumerate_paths,
    oracle_trace,
    random_graph,
    random_spec_params,
    traced,
)

ATTACKS = tuple(s for s in SCENARIO_IDS if s != "benign_baseline")

EXPECTED_RISKS = {
    "memory_poisoning_tool_misuse": {"ASI02", "ASI06"},
    "supply_chain_code_exec": {"ASI04", "ASI05"},
    "ecosystem_hijacking": {"ASI01", "ASI07", "ASI08"},
    "privilege_trust_abuse": {"ASI03", "ASI09", "ASI10"},
}


def test_attack_scenarios_replay_exactly(fixtures, graphs):
    total_findings = 0
    slowest = 0.0
    for sid in ATTACKS:
        fx = fixtures[sid]
        started = time.perf_counter()
        graph = fx.build()
        report = audit(graph)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 1.0, f"{sid}: {elapsed:.3f}s"

        assert set(report.risk_ids()) == EXPECTED_RISKS[sid], sid
        got = {(f.risk_id, f.entry) for f in report.findings}
        want = {(e.risk_id, e.entry) for e in fx.expected}
        assert got == want, sid

        by_key = {(f.risk_id, f.entry): f for f in report.findings}
        for exp in fx.expected:
            finding = by_key[(exp.risk_id, exp.entry)]
            assert finding.phase_label == exp.phase, exp
            if exp.back_reaches is None:
                assert finding.back_paths == [], exp
            else:
                origins = {p.origin for p in finding.back_paths}
                assert exp.back_reaches in origins, exp
            if exp.fwd_reaches is not None:
                termini = {p.terminus for p in finding.fwd_paths}
                assert exp.fwd_reaches in termini, exp
        total_findings += len(report.findings)
    print(f"PASS replayed {len(ATTACKS)} attack scenarios exactly "
          f"({total_findings} findings, slowest {slowest:.3f}s)")


def test_benign_baseline_audits_clean(graphs):
    report = audit(graphs["benign_baseline"])
    assert report.findings == []
    assert all(s["findings"] == 0 for s in report.stats.values())
    print("PASS benign baseline audits clean across all ten rules")


def test_trace_agrees_with_brute_force_on_random_graphs():
    """Each trace's witnesses, their counts, its scope and its explored
    count equal the reduction of brute-force enumeration, and a trace that
    keeps nothing walks exactly the enumerated paths. Every other graph is
    timed, with edges that run back in time."""
    checked_graphs = 0
    checked_paths = 0
    mismatches = []
    for seed in range(1000):
        rng = random.Random(31_000 + seed)
        graph = random_graph(rng, timed=seed % 2 == 1)
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
            got = traced(trace(graph, start, spec))
            want = oracle_trace(graph, start, params)
            every = len(enumerate_paths(graph, start, **params))
            walked = traced(trace(graph, start, spec, keep_end=lambda i: False))
            if got != want or walked != ([], (), every):
                mismatches.append((seed, start))
            checked_paths += every
        checked_graphs += 1
    assert mismatches == []
    assert checked_graphs >= 1000
    print(f"PASS trace matched brute force on {checked_graphs} random "
          f"graphs ({checked_paths} paths compared)")


def _endpoint_probe(src_kind, tgt_kind, edge_kind):
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a1", "one", ""))
    graph.add_agent(AgentDescriptor("a2", "two", ""))
    for node_id, kind, agent in (("s", src_kind, "a1"), ("t", tgt_kind, "a2")):
        node = Node(node_id=node_id, kind=kind)
        if kind.layer is Layer.RUNTIME:
            node.agent_id = agent
            node.trace_id = "t0"
            node.timestamp = "2026-03-01T00:00:00Z"
        graph.add_node(node)
    graph.add_edge(Edge("e", edge_kind, "s", "t"))


def test_edge_insertion_matches_the_endpoint_table():
    rng = random.Random(47)
    node_kinds = list(NodeKind)
    edge_kinds = list(EdgeKind)
    trials = 10_000
    accepted = 0
    for _ in range(trials):
        src = rng.choice(node_kinds)
        tgt = rng.choice(node_kinds)
        kind = rng.choice(edge_kinds)
        should_accept = src in kind.sources and tgt in kind.targets
        if should_accept:
            _endpoint_probe(src, tgt, kind)  # raises on a false reject
            accepted += 1
        else:
            with pytest.raises(EndpointKindError):
                _endpoint_probe(src, tgt, kind)
    print(f"PASS edge insertion agreed with the edge kinds' endpoint kinds on "
          f"{trials} random kind triples ({accepted} accepted)")


def test_findings_self_verify_from_recorded_evidence(fixtures, graphs):
    rules_by_id = {r.risk_id: r for r in builtin_rules()}
    findings_checked = 0
    items_replayed = 0
    for sid in ATTACKS:
        graph = graphs[sid]
        for finding in audit(graph).findings:
            rule = rules_by_id[finding.risk_id]
            entry = graph.element(finding.entry)
            reachable = finding.element_ids()
            assert {i.element_id for i in finding.evidence} <= reachable
            for item in finding.evidence:
                clause = rule.conditions[item.clause_index]
                holds = clause.predicate.evaluate(
                    graph.element(item.element_id), graph=graph, entry=entry
                )
                assert holds, (sid, finding.risk_id, item.element_id)
                items_replayed += 1
            for index, clause in enumerate(rule.conditions):
                if clause.quantifier == "exists":
                    assert any(i.clause_index == index
                               for i in finding.evidence), (sid, index)
            findings_checked += 1
    assert findings_checked == sum(len(fixtures[s].expected) for s in ATTACKS)
    print(f"PASS {findings_checked} findings self-verified "
          f"({items_replayed} evidence items replayed)")


def test_removing_any_evidence_node_kills_the_finding(fixtures, graphs):
    removals = 0
    for sid in ATTACKS:
        fx = fixtures[sid]
        graph = graphs[sid]
        for finding in audit(graph).findings:
            nodes_on_path = sorted(
                e for e in finding.element_ids() if e in graph.nodes
            )
            for node_id in nodes_on_path:
                surviving = audit(without_node(fx, node_id).build()).findings
                keys = {(f.risk_id, f.entry) for f in surviving}
                assert (finding.risk_id, finding.entry) not in keys, (
                    sid, finding.risk_id, finding.entry, node_id,
                )
                removals += 1
    print(f"PASS every finding died with each of its evidence nodes "
          f"({removals} single-node removals checked)")


def test_same_seed_pipelines_are_byte_identical():
    for sid in SCENARIO_IDS:
        for seed in (0, 11):
            first, second = generate(sid, seed), generate(sid, seed)
            g1, g2 = first.build(), second.build()
            assert g1.to_json() == g2.to_json(), (sid, seed)
            r1, r2 = audit(g1), audit(g2)
            assert r1.to_json() == r2.to_json(), (sid, seed)
            assert to_dot(g1) == to_dot(g2), (sid, seed)
            for f1, f2 in zip(r1.findings, r2.findings):
                assert finding_to_dot(g1, f1) == finding_to_dot(g2, f2)
    print(f"PASS same-seed pipelines byte-identical across "
          f"{len(SCENARIO_IDS)} scenarios x 2 seeds "
          f"(graph, report, and DOT outputs)")


def test_builtin_rules_anchor_at_the_documented_kinds():
    table = {
        "ASI01": ("node", {"GoalNode"}),
        "ASI02": ("node", {"ToolNode"}),
        "ASI03": ("node", {"ReasoningNode"}),
        "ASI04": ("node", {"ToolNode", "SkillNode", "PromptNode",
                           "LLMNode", "CodeNode"}),
        "ASI05": ("node", {"ToolNode"}),
        "ASI06": ("node", {"ActionNode", "ContextNode"}),
        "ASI07": ("edge", "propagation"),
        "ASI08": ("edge", "propagation"),
        "ASI09": ("node", {"ExternalNode", "ObservationNode"}),
        "ASI10": ("node", {"AgentNode", "PromptNode", "CodeNode", "LLMNode"}),
    }
    rules = builtin_rules()
    assert [r.risk_id for r in rules] == sorted(table)
    for rule in rules:
        element_class, anchor = table[rule.risk_id]
        assert rule.entry.element_class == element_class, rule.risk_id
        if element_class == "node":
            assert set(rule.entry.kinds) == anchor, rule.risk_id
        else:
            expanded = schema.expand_edge_kinds(rule.entry.kinds)
            assert expanded == schema.PROPAGATION_KINDS, rule.risk_id
    print("PASS builtin rule entries anchor at the documented kinds")
