from __future__ import annotations

import pytest

from agentbom import schema
from agentbom.errors import UnknownKindError
from agentbom.graph import AgentDescriptor, Edge, Node
from agentbom.ingestion import TraceEvent
from agentbom.schema import EdgeFamily, EdgeKind, Flow, Layer, NodeKind


# Every kind's facts, written out by hand: a node kind's layer and stage in
# the runtime loop, and an edge kind's family, flow and the node kinds its
# source and target may have. Kinds go by their wire names.
_RUNTIME = ("ExternalNode GoalNode ContextNode ReasoningNode DecisionNode ActionNode "
            "ObservationNode OutputNode")
_STATIC = "AgentNode CodeNode LLMNode PromptNode ToolNode SkillNode LongTermMemoryNode"

NODE_FACTS = {
    "AgentNode": ("static", None),
    "CodeNode": ("static", None),
    "LLMNode": ("static", None),
    "PromptNode": ("static", None),
    "ToolNode": ("static", None),
    "SkillNode": ("static", None),
    "LongTermMemoryNode": ("static", None),
    "ExternalNode": ("runtime", 0),
    "GoalNode": ("runtime", 1),
    "ContextNode": ("runtime", 2),
    "ReasoningNode": ("runtime", 3),
    "DecisionNode": ("runtime", 4),
    "ActionNode": ("runtime", 5),
    "ObservationNode": ("runtime", 6),
    "OutputNode": ("runtime", 7),
    "EnvironmentNode": ("auxiliary", None),
    "ArtifactNode": ("auxiliary", None),
}

EDGE_FACTS = {
    "has_prompt": ("structural", "inv", "AgentNode", "PromptNode"),
    "uses_model": ("structural", "inv", "AgentNode", "LLMNode"),
    "loads_tool": ("structural", "inv", "AgentNode", "ToolNode"),
    "loads_skill": ("structural", "inv", "AgentNode", "SkillNode"),
    "depends_on": ("structural", "inv", "AgentNode CodeNode", "CodeNode"),
    "flows_to": ("evolution", "with", _RUNTIME, _RUNTIME),
    "transitions_to": ("evolution", "with", _RUNTIME, _RUNTIME),
    "influences": ("evolution", "with", _RUNTIME, _RUNTIME),
    "acts_on": ("evolution", "with", "ActionNode", "EnvironmentNode ArtifactNode"),
    "emits": ("evolution", "with", _RUNTIME, "ObservationNode"),
    "reads_from": ("binding", "inv", "ContextNode ReasoningNode", "LongTermMemoryNode"),
    "selects": ("binding", "inv", "DecisionNode", "ToolNode SkillNode"),
    "invokes": ("binding", "both", "ActionNode", "ToolNode"),
    "writes_to": ("binding", "with", "ActionNode ObservationNode OutputNode",
                  "LongTermMemoryNode ArtifactNode"),
    "updates": ("binding", "with", _RUNTIME, _STATIC),
    "sends_to": ("propagation", "with", "OutputNode ActionNode", "ExternalNode ContextNode"),
    "delegates_to": ("propagation", "with", "AgentNode DecisionNode", "AgentNode"),
    "responds_to": ("propagation", "inv", "OutputNode ActionNode",
                    "ExternalNode ContextNode GoalNode"),
    "shares_context_with": ("propagation", "with", "AgentNode ContextNode",
                            "AgentNode ContextNode"),
    "shares_memory_with": ("propagation", "inv", "AgentNode", "LongTermMemoryNode"),
}


def _node_facts(kind):
    return kind.layer.value, kind.stage


def _edge_facts(kind):
    return (kind.family.value, kind.flow.value,
            frozenset(k.value for k in kind.sources), frozenset(k.value for k in kind.targets))


def test_every_node_kind_has_its_layer_and_stage():
    assert {kind.value: _node_facts(kind) for kind in NodeKind} == NODE_FACTS


def test_every_edge_kind_has_its_family_flow_and_endpoint_kinds():
    assert {kind.value: _edge_facts(kind) for kind in EdgeKind} == {
        name: (family, flow, frozenset(sources.split()), frozenset(targets.split()))
        for name, (family, flow, sources, targets) in EDGE_FACTS.items()}


def test_layer_partition_sizes():
    assert len(schema.STATIC_KINDS) == 7
    assert len(schema.RUNTIME_KINDS) == 8
    assert len(schema.AUXILIARY_KINDS) == 2
    assert schema.STATIC_KINDS | schema.RUNTIME_KINDS | schema.AUXILIARY_KINDS == set(
        NodeKind
    )


def test_parse_node_kind_round_trip_and_rejection():
    assert schema.parse_node_kind("ToolNode") is NodeKind.TOOL
    with pytest.raises(UnknownKindError):
        schema.parse_node_kind("GadgetNode")


def test_parse_edge_kind_round_trip_and_rejection():
    assert schema.parse_edge_kind("reads_from") is EdgeKind.READS_FROM
    with pytest.raises(UnknownKindError):
        schema.parse_edge_kind("teleports_to")


@pytest.mark.parametrize("parse, name, message", [
    (schema.parse_node_kind, "GadgetNode", "unknown node kind 'GadgetNode'"),
    (schema.parse_node_kind, ["ToolNode"], "unknown node kind ['ToolNode']"),
    (schema.parse_node_kind, "toolnode", "unknown node kind 'toolnode'"),
    (schema.parse_edge_kind, "teleports_to", "unknown edge kind 'teleports_to'"),
    (schema.parse_edge_kind, {"invokes": 1}, "unknown edge kind {'invokes': 1}"),
    (schema.parse_edge_kind, None, "unknown edge kind None"),
])
def test_unknown_kind_names_keep_their_message(parse, name, message):
    with pytest.raises(UnknownKindError) as raised:
        parse(name)
    assert str(raised.value) == message


def test_every_wire_name_parses_to_its_kind():
    assert [schema.parse_node_kind(k.value) for k in NodeKind] == list(NodeKind)
    assert [schema.parse_edge_kind(k.value) for k in EdgeKind] == list(EdgeKind)


def test_schema_enums_hash_by_identity():
    for vocabulary in (Layer, NodeKind, EdgeFamily, EdgeKind, Flow):
        for member in vocabulary:
            assert hash(member) == object.__hash__(member)
            assert member == member and member != member.value
    assert {NodeKind.TOOL: 1}[NodeKind.TOOL] == 1


def test_expand_edge_kinds_accepts_names_enums_and_aliases():
    expanded = schema.expand_edge_kinds(["flows_to", EdgeKind.INVOKES])
    assert expanded == frozenset({EdgeKind.FLOWS_TO, EdgeKind.INVOKES})

    assert schema.expand_edge_kinds([schema.AGENT_PROPAGATION_ALIAS]) == (
        schema.PROPAGATION_KINDS
    )
    assert schema.expand_edge_kinds(["propagation"]) == schema.PROPAGATION_KINDS
    assert schema.expand_edge_kinds(["structural"]) == frozenset(
        {
            EdgeKind.HAS_PROMPT,
            EdgeKind.USES_MODEL,
            EdgeKind.LOADS_TOOL,
            EdgeKind.LOADS_SKILL,
            EdgeKind.DEPENDS_ON,
        }
    )
    with pytest.raises(UnknownKindError):
        schema.expand_edge_kinds(["no_such_family"])


def test_flow_orientation_table():
    # The access-style arrows carry content against their direction; invokes
    # couples both ways; everything else flows with the arrow.
    inverted = {kind for kind in EdgeKind if kind.flow is Flow.INV}
    assert inverted == {
        EdgeKind.HAS_PROMPT,
        EdgeKind.USES_MODEL,
        EdgeKind.LOADS_TOOL,
        EdgeKind.LOADS_SKILL,
        EdgeKind.DEPENDS_ON,
        EdgeKind.READS_FROM,
        EdgeKind.SELECTS,
        EdgeKind.RESPONDS_TO,
        EdgeKind.SHARES_MEMORY_WITH,
    }
    both = {kind for kind in EdgeKind if kind.flow is Flow.BOTH}
    assert both == {EdgeKind.INVOKES}


def test_cognitive_stage_order():
    ordered = sorted(schema.RUNTIME_KINDS, key=lambda kind: kind.stage)
    assert ordered == [
        NodeKind.EXTERNAL,
        NodeKind.GOAL,
        NodeKind.CONTEXT,
        NodeKind.REASONING,
        NodeKind.DECISION,
        NodeKind.ACTION,
        NodeKind.OBSERVATION,
        NodeKind.OUTPUT,
    ]
    assert [kind.stage for kind in ordered] == list(range(8))


def test_common_attribute_keys_are_allowed_everywhere():
    for kind in NodeKind:
        allowed = kind.checks.keys()
        assert {"content", "trust_level", "danger_flags", "type"} <= allowed


def test_propagation_edges_get_the_channel_keys():
    assert "authentication_status" in EdgeKind.SENDS_TO.checks
    assert "authentication_status" not in EdgeKind.FLOWS_TO.checks
    assert "trace_id" in EdgeKind.FLOWS_TO.checks


# Every kind's allowed attribute keys, written out by hand, by wire name.
_EVERY_NODE = "content danger_flags integrity_status shared_state source trust_level type"
_TOOL_LIKE = "execution_environment input_schema permission_scope sandbox_status tool_name"
_PLAIN_EDGE = "content danger_flags trace_id type"
_CHANNEL_EDGE = ("authentication_status content danger_flags integrity_status propagation_status "
                 "shared_state source_agent target_agent task_dependency trace_id type")
ALLOWED_KEYS = {
    "AgentNode": f"{_EVERY_NODE} agent_id role",
    "CodeNode": f"{_EVERY_NODE} code_file",
    "LLMNode": _EVERY_NODE,
    "PromptNode": f"{_EVERY_NODE} role",
    "ToolNode": f"{_EVERY_NODE} {_TOOL_LIKE}",
    "SkillNode": f"{_EVERY_NODE} {_TOOL_LIKE}",
    "LongTermMemoryNode": _EVERY_NODE,
    "ExternalNode": f"{_EVERY_NODE} authentication_status source_agent target_agent",
    "GoalNode": f"{_EVERY_NODE} action_intent basis role task_dependency",
    "ContextNode": f"{_EVERY_NODE} basis",
    "ReasoningNode": f"{_EVERY_NODE} action_intent basis",
    "DecisionNode": f"{_EVERY_NODE} action_intent basis confirmation_status selected_tools "
                    "target_agent task_dependency",
    "ActionNode": f"{_EVERY_NODE} action_intent affected_resource basis confirmation_status "
                  "execution_status parameter_source parameters source_agent target target_agent "
                  "tool_name",
    "ObservationNode": f"{_EVERY_NODE} affected_resource basis environment_state_change "
                       "execution_status side_effects target",
    "OutputNode": f"{_EVERY_NODE} basis source_agent target target_agent",
    "EnvironmentNode": f"{_EVERY_NODE} affected_resource environment_state_change "
                       "execution_environment sandbox_status",
    "ArtifactNode": f"{_EVERY_NODE} affected_resource code_file target",
    **dict.fromkeys(("has_prompt", "uses_model", "loads_tool", "loads_skill", "depends_on",
                     "flows_to", "transitions_to", "influences", "acts_on", "emits",
                     "reads_from", "selects", "invokes", "writes_to", "updates"), _PLAIN_EDGE),
    **dict.fromkeys(("sends_to", "delegates_to", "responds_to", "shares_context_with",
                     "shares_memory_with"), _CHANNEL_EDGE),
}


def test_every_kind_checks_exactly_its_allowed_keys_with_their_registered_checks():
    kinds = (*NodeKind, *EdgeKind)
    assert {kind.value: set(kind.checks) for kind in kinds} == {
        name: set(keys.split()) for name, keys in ALLOWED_KEYS.items()}
    for kind in kinds:
        for key, check in kind.checks.items():
            assert check is schema.ATTRIBUTE_CHECKS[key], (kind, key)


def test_trust_level_check_takes_exactly_its_tokens():
    accepts, message = schema.ATTRIBUTE_CHECKS["trust_level"]
    assert all(accepts(token) for token in schema.TRUST_LEVELS)
    for bad in ("Trusted", "", "verified", 1, None, ["trusted"]):
        assert not accepts(bad)
    assert message == "must be one of ['trusted', 'untrusted', 'unknown']"


def test_danger_flags_check_takes_a_list_of_strings():
    accepts, message = schema.ATTRIBUTE_CHECKS["danger_flags"]
    assert accepts(["privilege_claim", "confirmation_bypass"]) and accepts([])
    for bad in ("privilege_claim", ("privilege_claim",), [5], None):
        assert not accepts(bad)
    assert message == "must be a list of strings"


def test_every_allowed_key_has_a_check_and_every_check_is_allowed_somewhere():
    allowed = set()
    for kind in (*NodeKind, *EdgeKind):
        allowed |= kind.checks.keys()
    assert allowed == set(schema.ATTRIBUTE_CHECKS)


def test_field_tables_name_exactly_the_fields_of_what_is_built_from_them():
    # these objects are built field by field from their checked documents; a
    # manifest's objects are built from the tables themselves
    for cls, table in [
        (TraceEvent, schema.TRACE_EVENT), (AgentDescriptor, schema.GRAPH_AGENT),
        (Node, schema.GRAPH_NODE), (Edge, schema.GRAPH_EDGE),
    ]:
        assert cls.__slots__ == tuple(table.fields), cls
