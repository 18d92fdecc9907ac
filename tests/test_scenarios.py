"""The scripted incident fixtures: coherence, determinism, ablation."""

from __future__ import annotations

import json

import pytest

from agentbom.ingestion import (
    assemble,
    check_event_stream,
    parse_manifest_json,
    parse_trace_jsonl,
)
from agentbom.rules import audit
from agentbom.scenarios import SCENARIO_IDS, generate

from _fixture_edits import without_node


def test_scenario_roster():
    assert SCENARIO_IDS == (
        "memory_poisoning_tool_misuse",
        "supply_chain_code_exec",
        "ecosystem_hijacking",
        "privilege_trust_abuse",
        "benign_baseline",
    )


def test_unknown_scenario_lists_the_choices():
    with pytest.raises(ValueError) as excinfo:
        generate("locked_room_mystery")
    for scenario_id in SCENARIO_IDS:
        assert scenario_id in str(excinfo.value)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_fixture_inputs_are_coherent(scenario_id, fixtures, graphs):
    fx = fixtures[scenario_id]
    check_event_stream(fx.events)  # raises on any ordering/reference fault
    graph = graphs[scenario_id]
    assert graph.frozen
    assert graph.validate() == []
    # every predicted entry must exist in the graph it predicts about
    for expectation in fx.expected:
        present = (expectation.entry in graph.nodes
                   or expectation.entry in graph.edges)
        assert present, expectation.entry


def test_seed_shifts_timestamps_and_nothing_else(graphs):
    sid = "memory_poisoning_tool_misuse"
    base = generate(sid, seed=0)
    shifted = generate(sid, seed=7)
    assert [e.event_id for e in shifted.events] == [e.event_id for e in base.events]
    assert [e.timestamp for e in shifted.events] != [e.timestamp for e in base.events]
    assert [e.content for e in shifted.events] == [e.content for e in base.events]
    g0, g7 = graphs[sid], shifted.build()
    assert g0.digest() != g7.digest()
    assert sorted(g0.nodes) == sorted(g7.nodes)
    assert audit(g7).risk_ids() == audit(g0).risk_ids()


def test_same_seed_rebuilds_identically():
    a = generate("privilege_trust_abuse", seed=3)
    b = generate("privilege_trust_abuse", seed=3)
    assert a.build().to_json() == b.build().to_json()


def test_write_round_trips_and_is_byte_stable(tmp_path, fixtures):
    fx = fixtures["supply_chain_code_exec"]
    paths = fx.write(tmp_path / "one")
    manifest = parse_manifest_json(paths["manifest"].read_text())
    events = parse_trace_jsonl(paths["trace"].read_text())
    rebuilt = assemble(manifest, events)
    assert rebuilt.digest() == fx.build().digest()

    report = json.loads(paths["expected"].read_text())
    assert report["scenario"] == fx.scenario_id
    assert report["risk_ids"] == fx.expected_risk_ids()
    assert {f["entry"] for f in report["findings"]} == {
        e.entry for e in fx.expected
    }

    again = fixtures["supply_chain_code_exec"].write(tmp_path / "two")
    for key in paths:
        assert paths[key].read_bytes() == again[key].read_bytes()


def test_removing_an_unknown_node_is_an_error(fixtures):
    with pytest.raises(ValueError):
        without_node(fixtures["benign_baseline"], "nothing.here")


def test_cannot_remove_the_only_agent(fixtures):
    with pytest.raises(ValueError):
        without_node(fixtures["benign_baseline"], "agent.assistant")


def test_runtime_removal_ripples_through_references(fixtures):
    fx = fixtures["memory_poisoning_tool_misuse"]
    pruned = without_node(fx, "ext.assistant.01")
    survivors = {e.event_id for e in pruned.events}
    # the poison session dies outright; the replay session survives only
    # until the memory read that would have returned the dropped write
    assert survivors == {"ext.assistant.08", "goal.assistant.09"}
    assert pruned.expected == ()
    graph = pruned.build()
    assert "ext.assistant.01" not in graph.nodes
    assert audit(graph).findings == []


def test_static_removal_prunes_manifest_and_usages(fixtures):
    fx = fixtures["memory_poisoning_tool_misuse"]
    pruned = without_node(fx, "tool.exec")
    assert all(not a["tools"] for a in pruned.manifest.agents)
    survivors = {e.event_id for e in pruned.events}
    assert "act.assistant.14" not in survivors  # the invocation
    assert "obs.assistant.15" not in survivors  # and its observation
    graph = pruned.build()
    assert "tool.exec" not in graph.nodes
    assert graph.validate() == []


def test_store_removal_takes_reads_and_writes_with_it(fixtures):
    fx = fixtures["benign_baseline"]
    pruned = without_node(fx, "mem.assistant_notes")
    survivors = {e.event_id for e in pruned.events}
    assert "act.assistant.06" not in survivors
    assert "act.assistant.07" not in survivors
    graph = pruned.build()
    assert "mem.assistant_notes" not in graph.nodes
    assert graph.validate() == []


def test_prompt_removal_empties_the_manifest_entry(fixtures):
    fx = fixtures["privilege_trust_abuse"]
    pruned = without_node(fx, "prompt.planner")
    graph = pruned.build()
    assert "prompt.planner" not in graph.nodes
    assert "prompt.executor" in graph.nodes
