"""Source-level edits of scenario fixtures, for tests that check a finding
does not survive the loss of its evidence."""

from __future__ import annotations

from agentbom.ingestion import parse_manifest
from agentbom.scenarios import Fixture


def without_node(fixture: Fixture, node_id: str) -> Fixture:
    """``fixture`` with one graph node removed at the source level.

    Removal ripples forward: an event dies with any event it references,
    and a memory read dies once the write it would have returned is gone.
    Static removals prune the manifest entry and every event that touched
    the capability.  The result carries no expectations; it exists so
    tests can check that findings do not survive the loss of their
    evidence.
    """
    doc = fixture.manifest.to_dict()
    dropped: set[str] = set()
    runtime_ids = {e.event_id for e in fixture.events}

    if node_id in runtime_ids:
        dropped.add(node_id)
    elif node_id.startswith("agent."):
        name = node_id.split(".", 1)[1]
        doc["agents"] = [a for a in doc["agents"] if a["agent_id"] != name]
        if not doc["agents"]:
            raise ValueError("cannot remove the last agent")
        dropped |= {e.event_id for e in fixture.events if e.agent_id == name}
        dropped |= {
            e.event_id for e in fixture.events
            if e.event_type == "delegation"
            and e.attrs.get("target_agent") == name
        }
    elif node_id.startswith("prompt."):
        _agent_entry(doc, node_id.split(".", 1)[1])["system_prompt"] = {}
    elif node_id.startswith("llm."):
        _agent_entry(doc, node_id.split(".", 1)[1])["model"] = {}
    elif node_id.startswith("tool."):
        name = node_id.split(".", 1)[1]
        for entry in doc["agents"]:
            entry["tools"] = [
                t for t in entry["tools"] if t["tool_name"] != name
            ]
        dropped |= {
            e.event_id for e in fixture.events
            if e.event_type == "tool_invocation"
            and e.attrs.get("tool_name") == name
        }
    elif node_id.startswith("skill."):
        name = node_id.split(".", 1)[1]
        for entry in doc["agents"]:
            entry["skills"] = [
                s for s in entry["skills"] if s["skill_name"] != name
            ]
        dropped |= {
            e.event_id for e in fixture.events
            if e.event_type == "skill_invocation"
            and e.attrs.get("tool_name") == name
        }
    elif node_id.startswith("mem."):
        name = node_id.split(".", 1)[1]
        for entry in doc["agents"]:
            entry["memory_stores"] = [
                m for m in entry["memory_stores"] if m["store_id"] != name
            ]
        dropped |= {
            e.event_id for e in fixture.events
            if e.event_type in ("memory_read", "memory_write")
            and e.attrs.get("target") == name
        }
    elif node_id.startswith("code."):
        name = node_id.split(".", 1)[1]
        for entry in doc["agents"]:
            entry["code_dependencies"] = [
                c for c in entry["code_dependencies"] if c["name"] != name
            ]
    else:
        raise ValueError(f"fixture has no node {node_id!r}")

    order = {e.event_id: i for i, e in enumerate(fixture.events)}
    changed = True
    while changed:
        changed = False
        for event in fixture.events:
            if event.event_id in dropped:
                continue
            lost = any(ref in dropped for ref in event.refs)
            if not lost and event.event_type == "memory_read":
                store = event.attrs.get("target")
                lost = any(
                    w.event_id in dropped
                    and w.event_type == "memory_write"
                    and w.attrs.get("target") == store
                    and order[w.event_id] < order[event.event_id]
                    for w in fixture.events
                )
            if lost:
                dropped.add(event.event_id)
                changed = True

    return Fixture(
        scenario_id=fixture.scenario_id,
        seed=fixture.seed,
        manifest=parse_manifest(doc),
        events=[e for e in fixture.events if e.event_id not in dropped],
    )


def _agent_entry(doc: dict, agent_id: str) -> dict:
    for entry in doc["agents"]:
        if entry["agent_id"] == agent_id:
            return entry
    raise ValueError(f"manifest has no agent {agent_id!r}")
