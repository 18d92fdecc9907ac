"""Closed vocabularies for the two-layer agent graph and its input documents.

Everything the graph may contain is declared here as data. Each node kind
is one enum row carrying its layer and runtime-loop stage, and each edge
kind one row carrying its family, its flow orientation (which path
traversal follows) and the node kinds its endpoints may have. The
attribute registry follows: one (predicate, message) check per attribute
key, and the keys each kind allows, which give every kind its ``checks``,
key -> check. The construction checks, the validators, ingestion and the
traversal engine all read from this one place. So are the fields of
every JSON document the program reads (manifest, trace event, graph, rule
pack, predicate, matcher pack): one field table per kind of object, checked
by check_fields.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple

from .errors import UnknownKindError


class _Vocabulary(enum.Enum):
    """Base of the closed vocabularies below.

    Members hash by identity. ``Enum.__hash__`` hashes the member's name in
    Python code, and kind-keyed tables are looked up for every element a
    graph loads or checks; identity hashing is a C slot, about three times
    faster. Enum members compare by identity, so hash and equality agree.
    """

    __hash__ = object.__hash__


# ===========================================================================
# layers and node kinds
# ===========================================================================


class Layer(_Vocabulary):
    """Which slice of the model a node kind belongs to."""

    STATIC = "static"        # capabilities declared before any execution
    RUNTIME = "runtime"      # states observed during an execution trace
    AUXILIARY = "auxiliary"  # reified environment and artifact objects


class NodeKind(_Vocabulary):
    """Every node kind the graph accepts, with its layer and, for a runtime
    kind, its stage in the cognitive loop. The set is closed. Each kind's
    ``checks`` (set with the attribute registry below) maps every attribute
    key it allows to that key's (predicate, message) check.

    Two stages are "consecutive" when they differ by exactly one; that
    decides whether a reference edge becomes flows_to or influences.
    """

    def __new__(cls, name: str, layer: Layer, stage: int | None = None):
        kind = object.__new__(cls)
        kind._value_ = name  # the wire name
        kind.layer = layer
        kind.stage = stage
        return kind

    # -- static capability layer
    AGENT = "AgentNode", Layer.STATIC                   # an agent's identity anchor
    CODE = "CodeNode", Layer.STATIC                     # code module or dependency
    LLM = "LLMNode", Layer.STATIC                       # backing language model
    PROMPT = "PromptNode", Layer.STATIC                 # system / role prompt
    TOOL = "ToolNode", Layer.STATIC                     # declared callable tool
    SKILL = "SkillNode", Layer.STATIC                   # packaged skill bundle
    LONG_TERM_MEMORY = "LongTermMemoryNode", Layer.STATIC  # persistent memory store

    # -- runtime semantic layer, in stage order
    EXTERNAL = "ExternalNode", Layer.RUNTIME, 0         # content entering from outside
    GOAL = "GoalNode", Layer.RUNTIME, 1                 # formed task goal
    CONTEXT = "ContextNode", Layer.RUNTIME, 2           # assembled working context
    REASONING = "ReasoningNode", Layer.RUNTIME, 3       # reasoning step
    DECISION = "DecisionNode", Layer.RUNTIME, 4         # committed decision
    ACTION = "ActionNode", Layer.RUNTIME, 5             # performed action
    OBSERVATION = "ObservationNode", Layer.RUNTIME, 6   # observed action result
    OUTPUT = "OutputNode", Layer.RUNTIME, 7             # emitted output

    # -- auxiliary objects
    ENVIRONMENT = "EnvironmentNode", Layer.AUXILIARY    # affected environment
    ARTIFACT = "ArtifactNode", Layer.AUXILIARY          # produced or touched artifact


STATIC_KINDS = frozenset(k for k in NodeKind if k.layer is Layer.STATIC)
RUNTIME_KINDS = frozenset(k for k in NodeKind if k.layer is Layer.RUNTIME)
AUXILIARY_KINDS = frozenset(k for k in NodeKind if k.layer is Layer.AUXILIARY)


NODE_KIND_OF_NAME = {kind.value: kind for kind in NodeKind}


def parse_node_kind(name: str) -> NodeKind:
    """Resolve a wire name like ``"ToolNode"``; unknown names are an error."""
    try:
        return NODE_KIND_OF_NAME[name]
    except (KeyError, TypeError):
        raise UnknownKindError(f"unknown node kind {quoted(name)}") from None


# ===========================================================================
# edge kinds: families, flow orientation, endpoint kinds
# ===========================================================================


class EdgeFamily(_Vocabulary):
    STRUCTURAL = "structural"    # static capability wiring
    EVOLUTION = "evolution"      # runtime state evolution
    BINDING = "binding"          # runtime-to-static coupling
    PROPAGATION = "propagation"  # content crossing agent boundaries


# Traversal follows content flow, not arrow direction. WITH means content
# moves source -> target; INV means the arrow records an access and content
# moves target -> source (reads_from: the reader points at the store, but
# the store's content flows into the reader); BOTH couples the endpoints in
# either direction (invokes: the invoking action is both the provenance and
# the impact channel of the tool).


class Flow(_Vocabulary):
    WITH = "with"
    INV = "inv"
    BOTH = "both"


_N = NodeKind
_STRUCTURAL, _EVOLUTION = EdgeFamily.STRUCTURAL, EdgeFamily.EVOLUTION
_BINDING, _PROPAGATION = EdgeFamily.BINDING, EdgeFamily.PROPAGATION


class EdgeKind(_Vocabulary):
    """Every edge kind the graph accepts, with its family, its flow, and the
    node kinds its source and its target may have; add_edge rejects any
    other pairing. The set is closed. Each kind's ``checks`` is as a node
    kind's."""

    def __new__(cls, name: str, family: EdgeFamily, flow: Flow, sources, targets):
        kind = object.__new__(cls)
        kind._value_ = name  # the wire name
        kind.family = family
        kind.flow = flow
        kind.sources = frozenset(sources)
        kind.targets = frozenset(targets)
        return kind

    HAS_PROMPT = "has_prompt", _STRUCTURAL, Flow.INV, {_N.AGENT}, {_N.PROMPT}
    USES_MODEL = "uses_model", _STRUCTURAL, Flow.INV, {_N.AGENT}, {_N.LLM}
    LOADS_TOOL = "loads_tool", _STRUCTURAL, Flow.INV, {_N.AGENT}, {_N.TOOL}
    LOADS_SKILL = "loads_skill", _STRUCTURAL, Flow.INV, {_N.AGENT}, {_N.SKILL}
    DEPENDS_ON = "depends_on", _STRUCTURAL, Flow.INV, {_N.AGENT, _N.CODE}, {_N.CODE}

    FLOWS_TO = "flows_to", _EVOLUTION, Flow.WITH, RUNTIME_KINDS, RUNTIME_KINDS
    TRANSITIONS_TO = "transitions_to", _EVOLUTION, Flow.WITH, RUNTIME_KINDS, RUNTIME_KINDS
    INFLUENCES = "influences", _EVOLUTION, Flow.WITH, RUNTIME_KINDS, RUNTIME_KINDS
    ACTS_ON = ("acts_on", _EVOLUTION, Flow.WITH, {_N.ACTION},
               {_N.ENVIRONMENT, _N.ARTIFACT})
    EMITS = "emits", _EVOLUTION, Flow.WITH, RUNTIME_KINDS, {_N.OBSERVATION}

    READS_FROM = ("reads_from", _BINDING, Flow.INV, {_N.CONTEXT, _N.REASONING},
                  {_N.LONG_TERM_MEMORY})
    SELECTS = "selects", _BINDING, Flow.INV, {_N.DECISION}, {_N.TOOL, _N.SKILL}
    INVOKES = "invokes", _BINDING, Flow.BOTH, {_N.ACTION}, {_N.TOOL}
    WRITES_TO = ("writes_to", _BINDING, Flow.WITH, {_N.ACTION, _N.OBSERVATION, _N.OUTPUT},
                 {_N.LONG_TERM_MEMORY, _N.ARTIFACT})
    UPDATES = "updates", _BINDING, Flow.WITH, RUNTIME_KINDS, STATIC_KINDS

    SENDS_TO = ("sends_to", _PROPAGATION, Flow.WITH, {_N.OUTPUT, _N.ACTION},
                {_N.EXTERNAL, _N.CONTEXT})
    DELEGATES_TO = ("delegates_to", _PROPAGATION, Flow.WITH, {_N.AGENT, _N.DECISION},
                    {_N.AGENT})
    RESPONDS_TO = ("responds_to", _PROPAGATION, Flow.INV, {_N.OUTPUT, _N.ACTION},
                   {_N.EXTERNAL, _N.CONTEXT, _N.GOAL})
    SHARES_CONTEXT_WITH = ("shares_context_with", _PROPAGATION, Flow.WITH,
                           {_N.AGENT, _N.CONTEXT}, {_N.AGENT, _N.CONTEXT})
    SHARES_MEMORY_WITH = ("shares_memory_with", _PROPAGATION, Flow.INV, {_N.AGENT},
                          {_N.LONG_TERM_MEMORY})


# Family aliases, accepted wherever a set of edge kinds is written down.
AGENT_PROPAGATION_ALIAS = "AgentPropagationEdge"

_FAMILY_ALIASES = {family.value: frozenset(k for k in EdgeKind if k.family is family)
                   for family in EdgeFamily}
PROPAGATION_KINDS = _FAMILY_ALIASES[AGENT_PROPAGATION_ALIAS] = _FAMILY_ALIASES["propagation"]


EDGE_KIND_OF_NAME = {kind.value: kind for kind in EdgeKind}


def parse_edge_kind(name: str) -> EdgeKind:
    try:
        return EDGE_KIND_OF_NAME[name]
    except (KeyError, TypeError):
        raise UnknownKindError(f"unknown edge kind {quoted(name)}") from None


def expand_edge_kinds(names) -> frozenset[EdgeKind]:
    """Expand a mixed list of edge-kind names and family aliases."""
    out: set[EdgeKind] = set()
    for name in names:
        if isinstance(name, EdgeKind):
            out.add(name)
        elif name in _FAMILY_ALIASES:
            out.update(_FAMILY_ALIASES[name])
        else:
            out.add(parse_edge_kind(name))
    return frozenset(out)


# ===========================================================================
# attribute registry
# ===========================================================================

TRUST_LEVELS = ("trusted", "untrusted", "unknown")
INTEGRITY_STATUSES = ("valid", "invalid", "unverified")
AUTHENTICATION_STATUSES = ("authenticated", "unauthenticated", "invalid")
CONFIRMATION_STATUSES = ("confirmed", "bypassed", "not_required")
PROPAGATION_STATUSES = ("delivered", "tampered", "dropped")
EXECUTION_STATUSES = ("succeeded", "failed", "blocked")
SANDBOX_STATUSES = ("sandboxed", "unsandboxed")


def is_string_list(value) -> bool:
    # a loop, not all() over a generator: this runs for most runtime nodes
    if not isinstance(value, list):
        return False
    for item in value:
        if not isinstance(item, str):
            return False
    return True


def _is_string_map(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )


def _one_of(tokens):
    return (lambda value: isinstance(value, str) and value in tokens,
            f"must be one of {list(tokens)}")


# The check of a text attribute, by identity: the graph's element check
# accepts an exact str under such a key without calling its predicate.
STRING_CHECK = (lambda value: isinstance(value, str), "must be a string")

# Attribute key -> (predicate, message): the check every value under that
# key must pass; the message completes "<element> attribute <key> ..." for
# a value that fails.
ATTRIBUTE_CHECKS: dict[str, tuple] = {
    **dict.fromkeys(
        ("content", "source", "action_intent", "tool_name", "input_schema", "target",
         "environment_state_change", "execution_environment", "code_file", "type",
         "role", "source_agent", "target_agent", "agent_id", "task_dependency",
         "shared_state", "trace_id"),
        STRING_CHECK),
    **dict.fromkeys(
        ("basis", "selected_tools", "parameter_source", "permission_scope",
         "affected_resource", "side_effects", "danger_flags"),
        (is_string_list, "must be a list of strings")),
    "parameters": (_is_string_map, "must be a string-to-string map"),
    "trust_level": _one_of(TRUST_LEVELS),
    "integrity_status": _one_of(INTEGRITY_STATUSES),
    "authentication_status": _one_of(AUTHENTICATION_STATUSES),
    "confirmation_status": _one_of(CONFIRMATION_STATUSES),
    "propagation_status": _one_of(PROPAGATION_STATUSES),
    "execution_status": _one_of(EXECUTION_STATUSES),
    "sandbox_status": _one_of(SANDBOX_STATUSES),
}

# Keys any node kind may carry.
_NODE_COMMON_KEYS = frozenset(
    {"content", "source", "trust_level", "integrity_status", "danger_flags",
     "type", "shared_state"}
)

# Extra keys per node kind, on top of the common set.
_NODE_EXTRA_KEYS: dict[NodeKind, frozenset[str]] = {
    NodeKind.AGENT: frozenset({"role", "agent_id"}),
    NodeKind.CODE: frozenset({"code_file"}),
    NodeKind.LLM: frozenset(),
    NodeKind.PROMPT: frozenset({"role"}),
    NodeKind.TOOL: frozenset(
        {"tool_name", "input_schema", "permission_scope", "sandbox_status",
         "execution_environment"}
    ),
    NodeKind.SKILL: frozenset(
        {"tool_name", "input_schema", "permission_scope", "sandbox_status",
         "execution_environment"}
    ),
    NodeKind.LONG_TERM_MEMORY: frozenset(),
    NodeKind.EXTERNAL: frozenset(
        {"source_agent", "target_agent", "authentication_status"}
    ),
    NodeKind.GOAL: frozenset({"basis", "role", "task_dependency", "action_intent"}),
    NodeKind.CONTEXT: frozenset({"basis"}),
    NodeKind.REASONING: frozenset({"basis", "action_intent"}),
    NodeKind.DECISION: frozenset(
        {"basis", "selected_tools", "action_intent", "confirmation_status",
         "target_agent", "task_dependency"}
    ),
    NodeKind.ACTION: frozenset(
        {"basis", "action_intent", "parameters", "parameter_source", "tool_name",
         "target", "confirmation_status", "execution_status", "source_agent",
         "target_agent", "affected_resource"}
    ),
    NodeKind.OBSERVATION: frozenset(
        {"basis", "execution_status", "environment_state_change",
         "affected_resource", "side_effects", "target"}
    ),
    NodeKind.OUTPUT: frozenset({"basis", "source_agent", "target_agent", "target"}),
    NodeKind.ENVIRONMENT: frozenset(
        {"environment_state_change", "sandbox_status", "execution_environment",
         "affected_resource"}
    ),
    NodeKind.ARTIFACT: frozenset({"code_file", "affected_resource", "target"}),
}

# Keys any edge may carry, and extras for propagation-family edges. On
# edges trace_id is an attribute; on nodes it is a field and never a key.
_EDGE_COMMON_KEYS = frozenset({"content", "trace_id", "type", "danger_flags"})
_EDGE_PROPAGATION_KEYS = frozenset(
    {"authentication_status", "integrity_status", "propagation_status",
     "source_agent", "target_agent", "task_dependency", "shared_state"}
)


# Each kind's checks: every attribute key the kind allows -> that key's
# check in ATTRIBUTE_CHECKS. Any other key is unregistered on the kind.
for _kind in NodeKind:
    _kind.checks = {key: ATTRIBUTE_CHECKS[key]
                    for key in sorted(_NODE_COMMON_KEYS | _NODE_EXTRA_KEYS[_kind])}
for _kind in EdgeKind:
    _kind.checks = {key: ATTRIBUTE_CHECKS[key] for key in sorted(_EDGE_COMMON_KEYS | (
        _EDGE_PROPAGATION_KEYS if _kind.family is EdgeFamily.PROPAGATION else frozenset()))}
del _kind


# Attribute keys whose string-list entries name other graph elements and
# must resolve when they are present.
REFERENCE_LIST_KEYS = ("basis", "parameter_source")


# ===========================================================================
# input document fields
# ===========================================================================


class JsonType(NamedTuple):
    """A JSON value type: the exact types json.loads gives its values (so
    true is not an integer), the noun that completes "must be ...", and the
    exact type of every item of an array, where it is fixed."""

    noun: str
    types: tuple
    items: type | None = None


STRING = JsonType("a string", (str,))
INTEGER = JsonType("an integer", (int,))
BOOLEAN = JsonType("true or false", (bool,))
OBJECT = JsonType("an object", (dict,))
ARRAY = JsonType("a list", (list,))
STRINGS = JsonType("a list of strings", (list,), str)
ANY = JsonType("a JSON value", (str, int, float, bool, list, dict, type(None)))

# Field presence; a NULL_AS_ABSENT field is optional, and null stands for leaving it out.
REQUIRED, OPTIONAL, NULL_AS_ABSENT = "required", "optional", "null as absent"


class FieldTable:
    """The fields one kind of document object may carry, name -> (JsonType,
    presence), and the views check_fields reads: the exact types each field
    accepts, the arrays whose items are typed, and the required names."""

    def __init__(self, **fields):
        self.fields = fields
        self.accepts = {key: t.types + ((type(None),) if p == NULL_AS_ABSENT else ())
                        for key, (t, p) in fields.items()}
        self.typed_arrays = tuple((key, t.items) for key, (t, _) in fields.items() if t.items)
        self.required = frozenset(key for key, (_, p) in fields.items() if p == REQUIRED)


# the stdlib decoder's C scanner: (value, end) of one JSON value that starts
# at a given index, with nothing before it
scan_once = json.JSONDecoder().scan_once


def load_json(text: str, what: str, error):
    """The document ``text`` holds; ``error`` names ``what`` if it is not
    JSON, or nests too deep for the decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} nests too deep to decode") from None


def quoted(value, limit: int = 80) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` characters,
    the last three an ellipsis, when it is longer."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def mistyped(what: str, key: str, json_type: JsonType, value) -> str:
    return f"{what} field {key!r} must be {json_type.noun}, got {quoted(value)}"


def check_fields(doc, table: FieldTable, what: str, error) -> None:
    """Raise ``error``, its message naming the object ``what``, unless ``doc``
    is an object whose every key is in ``table`` with a value of that
    field's type, and which carries every required field."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be an object, got {quoted(doc)}")
    accepts = table.accepts
    for key, value in doc.items():
        types = accepts.get(key)
        if types is None:
            raise error(f"{what} has unknown field {quoted(key)}")
        if type(value) not in types:
            raise error(mistyped(what, key, table.fields[key][0], value))
    for key, items in table.typed_arrays:
        value = doc.get(key)
        if value and not all(type(item) is items for item in value):
            raise error(mistyped(what, key, table.fields[key][0], value))
    if not doc.keys() >= table.required:
        missing = next(key for key in table.fields
                       if key in table.required and key not in doc)
        raise error(f"{what} is missing field {missing!r}")


# the commonest two fields: a required string, and a string that null leaves out
_STR = (STRING, REQUIRED)
_TEXT = (STRING, NULL_AS_ABSENT)

# -- capability manifest; values under system_prompt, model and provenance
# become node attributes, typed by ATTRIBUTE_CHECKS, and an empty one is left out
MANIFEST = FieldTable(agents=(ARRAY, REQUIRED))
MANIFEST_AGENT = FieldTable(
    agent_id=_STR, role=_TEXT, policy_boundary=_TEXT, system_prompt=(OBJECT, OPTIONAL),
    model=(OBJECT, OPTIONAL), tools=(ARRAY, OPTIONAL), skills=(ARRAY, OPTIONAL),
    memory_stores=(ARRAY, OPTIONAL), code_dependencies=(ARRAY, OPTIONAL))
MANIFEST_PROMPT = FieldTable(content=(ANY, OPTIONAL), source=(ANY, OPTIONAL),
                             trust_level=(ANY, OPTIONAL))
MANIFEST_MODEL = FieldTable(name=(ANY, OPTIONAL), provider=(ANY, OPTIONAL))
MANIFEST_TOOL = FieldTable(tool_name=_STR, input_schema=_TEXT,
                           permission_scope=(ARRAY, OPTIONAL), provenance=(OBJECT, OPTIONAL))
MANIFEST_SKILL = FieldTable(skill_name=_STR, declared_function=_TEXT,
                            implementation_summary=_TEXT, provenance=(OBJECT, OPTIONAL))
MANIFEST_PROVENANCE = FieldTable(source=(ANY, OPTIONAL), integrity_status=(ANY, OPTIONAL),
                                 trust_level=(ANY, OPTIONAL))
MANIFEST_MEMORY = FieldTable(store_id=_STR, type=_TEXT)
MANIFEST_CODE = FieldTable(name=_STR, version=_TEXT)

# -- trace event; attrs is the extension slot, its keys become node attributes
TRACE_EVENT = FieldTable(
    event_id=_STR, trace_id=_STR, agent_id=_STR, timestamp=_STR, event_type=_STR, content=_TEXT,
    refs=(STRINGS, OPTIONAL), attrs=(OBJECT, OPTIONAL))

# -- graph document; attributes is checked key by key by ATTRIBUTE_CHECKS
GRAPH = FieldTable(agents=(ARRAY, REQUIRED), nodes=(ARRAY, REQUIRED),
                   edges=(ARRAY, REQUIRED))
GRAPH_AGENT = FieldTable(agent_id=_STR, role=_TEXT, policy_boundary=_TEXT)
GRAPH_NODE = FieldTable(node_id=_STR, kind=_STR, agent_id=_TEXT, trace_id=_TEXT,
                        timestamp=_TEXT, attributes=(OBJECT, OPTIONAL))
GRAPH_EDGE = FieldTable(edge_id=_STR, kind=_STR, source=_STR, target=_STR, timestamp=_TEXT,
                        attributes=(OBJECT, OPTIONAL))

# -- rule pack, and its predicates with one table per op
RULE_PACK = FieldTable(rules=(ARRAY, REQUIRED))
RULE = FieldTable(risk_id=_STR, name=(STRING, OPTIONAL), entry=(OBJECT, REQUIRED),
                  back=(OBJECT, REQUIRED), fwd=(OBJECT, REQUIRED),
                  conditions=(ARRAY, REQUIRED))
RULE_ENTRY = FieldTable(element_class=_STR, kinds=(STRINGS, REQUIRED),
                        predicate=(OBJECT, OPTIONAL))
RULE_SPEC = FieldTable(
    direction=(STRING, OPTIONAL), edge_kinds=(STRINGS, REQUIRED),
    node_kinds=(STRINGS, NULL_AS_ABSENT), terminal=(OBJECT, OPTIONAL),
    max_depth=(INTEGER, OPTIONAL), cross_agent=(BOOLEAN, OPTIONAL))
RULE_CLAUSE = FieldTable(scope=_STR, quantifier=_STR, predicate=(OBJECT, REQUIRED))
PREDICATE_OPS = {
    "attr": FieldTable(op=_STR, key=_STR, cmp=_STR, value=(ANY, REQUIRED)),
    "flags": FieldTable(op=_STR, any_of=(STRINGS, NULL_AS_ABSENT)),
    "kind": FieldTable(op=_STR, any_of=(STRINGS, REQUIRED)),
    "layer": FieldTable(op=_STR, layer=_STR),
    "not": FieldTable(op=_STR, arg=(OBJECT, REQUIRED)),
    "and": FieldTable(op=_STR, args=(ARRAY, REQUIRED)),
    "or": FieldTable(op=_STR, args=(ARRAY, REQUIRED)),
    "neighbor": FieldTable(op=_STR, direction=_STR, edge_kinds=(STRINGS, REQUIRED),
                           node=(OBJECT, OPTIONAL), edge=(OBJECT, OPTIONAL)),
}
ENTRY_ATTR = FieldTable(entry_attr=_STR)  # a comparison value read from the entry

# -- danger matcher pack
MATCHER_PACK = FieldTable(patterns=(ARRAY, REQUIRED))
MATCHER_PATTERN = FieldTable(flag=_STR, pattern=_STR, applies_to=(STRINGS, REQUIRED))
