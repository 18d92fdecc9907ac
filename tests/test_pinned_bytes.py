"""Byte pins for the pipeline's outputs.

Graph JSON, report JSON and DOT are the replay contract, so refactors of
ingestion, graph, rules or the builtin pack must leave these hashes alone.
So is each fixture's manifest JSON, which fixtures and the bench's inputs
are written from.
The collision fixture is the only input that makes edge ids need a suffix.
"""

from __future__ import annotations

import hashlib

import pytest

from agentbom.dot import finding_to_dot, to_dot
from agentbom.ingestion import TraceEvent, assemble, parse_manifest
from agentbom.rules import audit, builtin_rules, dump_rules
from agentbom.scenarios import SCENARIO_IDS

# scenario -> sha256 of (graph JSON, report JSON, DOT) at seed 0
PINNED = {
    "memory_poisoning_tool_misuse": (
        "f6f39f8c22af43a6acd7bc3f08be75f20af953dbc6b2475e1317cb6fe08beb7e",
        "d556ca74134e1da0cda2dc9727ac4f3141da2c2dd353dbd1e37596f1d16a92af",
        "c0812dd6ebf0fe223162d79bb2d80ac43cf0147532654ceca1801a7132c32e13",
    ),
    "supply_chain_code_exec": (
        "ad8efe23ee0498ad58ab89a2d6b83472352db7f7bcfd8f19e5572372cae111da",
        "ce7c37b1b23ccba665d3873ddf7b00f8692969320421626b2d79d1b97e8812ea",
        "790160ed3120679d65dd8a3485bbecf231ad6769f2d6d6f366a052e32a99654c",
    ),
    "ecosystem_hijacking": (
        "a89cfe0a739e00e574afde2f19887deb69b3cba0cc1af1fbb653d510855367d1",
        "d83bce4a31cf576e1c4affd1905ddf344e5639489b2b61d9706a12134baddd89",
        "792d974b92d124acef67c947b74fd1addcdeb8b72de689989f5e25020280dae1",
    ),
    "privilege_trust_abuse": (
        "f14848e03d8604c8401edaaedf4d2545b3bbc0517c4d81b9e360c1c566a96c4f",
        "802596c9ca239195baa9fa62cd6b48fac0b8889d286c6ee204f2235b6b54a95e",
        "bec5732aaa3628bbf618d11ac1c922188de05bb20db06484e121cbb809be1906",
    ),
    "benign_baseline": (
        "c362f1012b0127d421de5bc1db951f4bf019fdebc9eed6a265c1ffb03b94c774",
        "d4117647f86c329bc5b85784433b08dadb89fc3042bf37b0ccc2a45edb13ba0b",
        "7f1a2369e21006a14f6f01ce648105b5dce4991423363aa05b71f8374b2c8019",
    ),
}

# scenario -> sha256 of every finding's DOT, concatenated in report order,
# at seed 0 (benign_baseline has no findings, so it pins the empty string)
FINDING_DOT_PINNED = {
    "memory_poisoning_tool_misuse":
        "e93f24ac184b4d8bee11f30ea78ebb42fa2e64f7deb9032e2d4014fff405aae3",
    "supply_chain_code_exec":
        "cd10601b9c7bc618853037e94f3b56cbc9521f39754860261d2e35b25475b4e0",
    "ecosystem_hijacking":
        "ab1fcfb925e68afe771b28417cd65b0f002cb3df56ae4275468bacf54b08f0df",
    "privilege_trust_abuse":
        "f6f2ff18185f48150e1e17a0d3ed34ed621b290517855caed2a922eb89038d32",
    "benign_baseline":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

# scenario -> sha256 of its manifest JSON at seed 0: the manifest.json that
# `agentbom scenario` writes, and the manifest the bench builds its inputs from
MANIFEST_PINNED = {
    "memory_poisoning_tool_misuse":
        "22c96b6b2977cfe323713a72d29244cc28904eb8862c7b04661d265b8a3b8113",
    "supply_chain_code_exec":
        "d3f2cbd7afef01db012b23ffdf2894257d0af8f9988ef1d46e7394f930144119",
    "ecosystem_hijacking":
        "0da5de0fc4bb554bc030ecf5fc92a6bbb8207cdff914f1cb6baf0ffd499e933e",
    "privilege_trust_abuse":
        "1a899e7788fc03ba12b0c0a30d644d32e463634199ec93e9df25c55e8dad0d9c",
    "benign_baseline":
        "e28ba4b84086c392f9af8d7df18e5cde20c49949573b01e45d0b6553cd878d32",
}

BUILTIN_PACK_SHA256 = "3dc262981a251f9175b4f3f986643be810ee58fa40c025c0fc2cddae0f19f3ff"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(SCENARIO_IDS)
    assert sorted(FINDING_DOT_PINNED) == sorted(SCENARIO_IDS)
    assert sorted(MANIFEST_PINNED) == sorted(SCENARIO_IDS)


@pytest.mark.parametrize("scenario_id", sorted(PINNED))
def test_scenario_bytes_are_pinned(graphs, scenario_id):
    graph = graphs[scenario_id]
    got = (_sha256(graph.to_json()), _sha256(audit(graph).to_json()),
           _sha256(to_dot(graph)))
    assert got == PINNED[scenario_id]


@pytest.mark.parametrize("scenario_id", sorted(FINDING_DOT_PINNED))
def test_finding_dot_bytes_are_pinned(graphs, scenario_id):
    graph = graphs[scenario_id]
    text = "".join(finding_to_dot(graph, f) for f in audit(graph).findings)
    assert _sha256(text) == FINDING_DOT_PINNED[scenario_id]


@pytest.mark.parametrize("scenario_id", sorted(MANIFEST_PINNED))
def test_manifest_bytes_are_pinned(fixtures, scenario_id):
    assert _sha256(fixtures[scenario_id].manifest.to_json()) == MANIFEST_PINNED[scenario_id]


def test_builtin_pack_bytes_are_pinned():
    assert _sha256(dump_rules(builtin_rules())) == BUILTIN_PACK_SHA256


def _collision_event(minute, event_id, event_type, refs=(), **attrs):
    return TraceEvent(event_id, "r", "a", f"2026-03-01T10:{minute:02d}:00Z",
                      event_type, refs=list(refs), attrs=attrs)


def test_colliding_edge_ids_get_numbered_suffixes():
    manifest = parse_manifest({"agents": [
        {"agent_id": "a", "tools": [{"tool_name": "t"}],
         "memory_stores": [{"store_id": "m"}, {"store_id": "m"}]},
        {"agent_id": "b"},
    ]})
    events = [
        _collision_event(1, "d", "decision_made"),
        _collision_event(2, "i1", "tool_invocation", tool_name="t"),
        _collision_event(3, "i2", "tool_invocation", tool_name="t"),
        _collision_event(4, "r1", "memory_read", target="m"),
        _collision_event(5, "r2", "memory_read", target="m"),
        _collision_event(6, "c", "context_assembled"),
        _collision_event(7, "g1", "delegation", target_agent="b"),
        _collision_event(8, "g2", "delegation", target_agent="b"),
        # u -> v.w and u.v -> w spell the same evolution edge id
        _collision_event(9, "u", "external_input"),
        _collision_event(10, "u.v", "external_input"),
        _collision_event(11, "v.w", "goal_formed", refs=["u"]),
        _collision_event(12, "w", "goal_formed", refs=["u.v"]),
    ]
    graph = assemble(manifest, events)
    assert sorted(graph.edges) == [
        "e.delegates_to.agent.a.agent.b",
        "e.delegates_to.agent.a.agent.b.2",
        "e.flows_to.u.v.w",
        "e.flows_to.u.v.w.2",
        "e.invokes.i1.tool.t",
        "e.invokes.i2.tool.t",
        "e.loads_tool.agent.a.tool.t",
        "e.reads_from.c.mem.m",
        "e.reads_from.c.mem.m.2",
        "e.selects.d.tool.t",
        "e.selects.d.tool.t.2",
        "e.shares_memory_with.agent.a.mem.m",
        "e.shares_memory_with.agent.a.mem.m.2",
    ]
    assert graph.edges["e.flows_to.u.v.w"].source == "u"
    assert graph.edges["e.flows_to.u.v.w.2"].source == "u.v"
    assert graph.digest() == (
        "be9e1ea85733bd849cad965183606dc5cf1752a8205253b6a6ac00b76b65efe4")
