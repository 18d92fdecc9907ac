"""Builds a graph out of a capability manifest and an ordered event stream.

Assembly runs in three stages: static extraction (agents, capability nodes,
structural wiring), event normalization (one runtime node per event plus
evolution edges from event references), and cross-layer binding
(invocations, memory traffic, message pairing, delegation). Each stage
inserts what it makes straight into the graph, so an edge id is free
exactly when the graph does not hold it yet. Binding walks the events once,
in order, keeping per trace only the latest decision and the memory reads
still waiting for a consumer. Message pairing then follows one rule: a
receive takes the first free send with its message_id, else the nearest
free send with its content, and either way only a send whose agents line
up with it (different agents, declared counterparts agreeing); a send or
receive left over gets a synthesized counterpart. Every element is
checked as it is inserted, so the assembled graph needs no second,
whole-graph validation. Content is scanned here, by a per-build copy of
the danger matcher; every later stage reads only the recorded flags.

Trace parsing keeps one string object per repeated trace id, agent id,
event type, content, attrs key and string attrs value, and makes each event
ref the id object of the event it names, so a long trace holds each such
value once; a line is decoded by the JSON decoder's C scanner unless it
needs json.loads to be read the same way.

A parsed manifest is its checked document: each agent, and each entry of
its tools, skills, memory stores and code dependencies, is a plain dict
holding every field of its table in schema.py, a field left out or null
holding the empty value of its type.
"""

from __future__ import annotations

import copy

from . import schema
from .errors import (
    ManifestParseError,
    OutOfOrderTimestampError,
    TraceParseError,
    UnresolvedRefError,
)
from .graph import (
    AgentBomGraph,
    AgentDescriptor,
    Edge,
    Node,
    _TEXT_OR_NONE,
    _collector_paused,
    dump_json,
    instant,
)
from .matchers import DangerMatcher, default_matcher
from .record import FRESH, Record
from .schema import EdgeKind, NodeKind

# ===========================================================================
# manifest
# ===========================================================================


class CapabilityManifest(Record):
    """A checked manifest: each agent, and each entry of its sections, is a
    dict holding every field of its table."""

    __slots__ = ("agents",)

    def __init__(self, agents: list):
        self.agents = agents

    def to_dict(self) -> dict:
        return {"agents": copy.deepcopy(self.agents)}

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def parse_manifest(doc: dict) -> CapabilityManifest:
    """Parse and cross-check a manifest document."""
    schema.check_fields(doc, schema.MANIFEST, "manifest", ManifestParseError)
    if not doc["agents"]:
        raise ManifestParseError("manifest declares no agents")
    agents = _entries(doc, "manifest", "agents", schema.MANIFEST_AGENT, "agent_id", unique=True)
    return CapabilityManifest([
        _filled(raw, schema.MANIFEST_AGENT, f"agent {schema.quoted(raw['agent_id'])}")
        for _, raw in agents])


# section of an agent -> its entries' table, their name key, and whether names
# are unique
_SECTIONS = {
    "tools": (schema.MANIFEST_TOOL, "tool_name", True),
    "skills": (schema.MANIFEST_SKILL, "skill_name", True),
    "memory_stores": (schema.MANIFEST_MEMORY, "store_id", False),
    "code_dependencies": (schema.MANIFEST_CODE, "name", False),
}
# field -> the table of the object under it
_OBJECTS = {"system_prompt": schema.MANIFEST_PROMPT, "model": schema.MANIFEST_MODEL,
            "provenance": schema.MANIFEST_PROVENANCE}


def _filled(doc: dict, table, what: str) -> dict:
    """Every field of ``table`` for the checked manifest object ``doc``: the
    document's value copied deep, or, for a field left out or null, the empty
    value of its type. An object under system_prompt, model or provenance is
    first checked against its table, and each section's entries are filled
    the same way."""
    for key, value in doc.items():
        if key in _OBJECTS:
            schema.check_fields(value, _OBJECTS[key], f"{what} {key}", ManifestParseError)
    filled = {}
    for key, (json_type, _) in table.fields.items():
        value = doc.get(key)
        if value is None:
            filled[key] = json_type.types[0]()
        elif key in _SECTIONS:
            section_table, name_key, unique = _SECTIONS[key]
            filled[key] = [_filled(entry, section_table, where) for where, entry
                           in _entries(doc, what, key, section_table, name_key, unique)]
        else:
            try:
                filled[key] = copy.deepcopy(value)
            except RecursionError:
                raise ManifestParseError(f"{what} field {key!r} nests too deep") from None
    return filled


def _entries(doc: dict, what: str, section: str, table, name_key: str,
             unique: bool = False) -> list:
    """(where, entry) for each object listed under ``section`` of ``doc``,
    checked against ``table`` and named by a non-empty ``name_key``."""
    names, out = set(), []
    for index, entry in enumerate(doc[section]):
        where = f"{what} {section}[{index}]"
        schema.check_fields(entry, table, where, ManifestParseError)
        name = entry[name_key]
        if not name:
            raise ManifestParseError(f"{where} field {name_key!r} must be a non-empty string")
        if unique and name in names:
            raise ManifestParseError(f"{what}: {name_key} {schema.quoted(name)} declared twice")
        names.add(name)
        out.append((where, entry))
    return out


def parse_manifest_json(text: str) -> CapabilityManifest:
    return parse_manifest(schema.load_json(text, "manifest", ManifestParseError))


# ===========================================================================
# trace events
# ===========================================================================

# event type -> runtime node kind; types outside the canonical loop also
# stamp their name into the node's type attribute
_EVENT_KIND = {
    "external_input": NodeKind.EXTERNAL,
    "goal_formed": NodeKind.GOAL,
    "context_assembled": NodeKind.CONTEXT,
    "reasoning_step": NodeKind.REASONING,
    "decision_made": NodeKind.DECISION,
    "action_taken": NodeKind.ACTION,
    "observation": NodeKind.OBSERVATION,
    "output_emitted": NodeKind.OUTPUT,
    "memory_read": NodeKind.ACTION,
    "memory_write": NodeKind.ACTION,
    "tool_invocation": NodeKind.ACTION,
    "skill_invocation": NodeKind.ACTION,
    "message_sent": NodeKind.ACTION,
    "message_received": NodeKind.EXTERNAL,
    "delegation": NodeKind.DECISION,
}

_TYPED_EVENTS = frozenset(
    {"memory_read", "memory_write", "tool_invocation", "skill_invocation",
     "message_sent", "message_received", "delegation"}
)

# attrs keys that describe the propagation edge rather than the node; for
# message and delegation events they are routed to the edge during binding
_EDGE_DIRECTIVE_KEYS = frozenset(
    {"message_id", "authentication_status", "integrity_status",
     "propagation_status", "source_agent", "target_agent", "task_dependency"}
)
_MESSAGE_EVENTS = frozenset({"message_sent", "message_received", "delegation"})

# the edge kinds assembly reads once per event or pair, read once: on 3.11
# each read through the enum class, such as EdgeKind.INVOKES, costs a Python call
_FLOWS_TO, _INFLUENCES, _SENDS_TO = EdgeKind.FLOWS_TO, EdgeKind.INFLUENCES, EdgeKind.SENDS_TO
_INVOKES, _SELECTS = EdgeKind.INVOKES, EdgeKind.SELECTS
_READS_FROM, _WRITES_TO = EdgeKind.READS_FROM, EdgeKind.WRITES_TO


class TraceEvent(Record):
    __slots__ = ("event_id", "trace_id", "agent_id", "timestamp", "event_type", "content",
                 "refs", "attrs")

    def __init__(self, event_id: str, trace_id: str, agent_id: str, timestamp: str,
                 event_type: str, content: str = "", refs: list = FRESH,
                 attrs: dict = FRESH):
        self.event_id = event_id
        self.trace_id = trace_id
        self.agent_id = agent_id
        self.timestamp = timestamp
        self.event_type = event_type
        self.content = content
        self.refs = [] if refs is FRESH else refs
        self.attrs = {} if attrs is FRESH else attrs

    def to_dict(self) -> dict:
        doc = {
            "event_id": self.event_id,
            "trace_id": self.trace_id,
            "agent_id": self.agent_id,
            "timestamp": self.timestamp,
            "event_type": self.event_type,
            "content": self.content,
        }
        if self.refs:
            doc["refs"] = list(self.refs)
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceEvent":
        # the table names exactly these fields; the event keeps the document's
        # refs list and attrs object. A dict that the constructor takes, with
        # the table's types, passes check_fields, which is left to word what
        # is wrong with any other document.
        try:
            event = cls(**doc) if type(doc) is dict else None
        except TypeError:
            event = None
        if event is None or not (
                type(event.event_id) is str and type(event.trace_id) is str
                and type(event.agent_id) is str and type(event.timestamp) is str
                and type(event.event_type) is str and type(event.content) in _TEXT_OR_NONE
                and type(event.refs) is list and type(event.attrs) is dict
                and all([type(ref) is str for ref in event.refs])):
            schema.check_fields(doc, schema.TRACE_EVENT, "trace event", TraceParseError)
            event = cls(**doc)
        if not (doc["event_id"] and doc["trace_id"] and doc["agent_id"]):
            empty = next(k for k in ("event_id", "trace_id", "agent_id") if not doc[k])
            raise TraceParseError(f"trace event field {empty!r} must be a non-empty string")
        if doc["event_type"] not in _EVENT_KIND:
            raise TraceParseError(f"unknown event type {schema.quoted(doc['event_type'])}")
        if event.content is None:
            event.content = ""
        return event


# A line of n characters nests at most n // 2 levels. parse_trace_jsonl
# decodes a line shorter than _SCANNED characters with the scanner only when
# _probe shows that the scanner, called 8 calls deeper, can nest 8 levels
# more than such a line: load_json's decoder runs four calls deeper
# (load_json, json.loads, JSONDecoder.decode, raw_decode), and then cannot
# reach the recursion limit on such a line either. A count of frames would
# not do: entering Python from C code uses up the limit too, unseen.
_SCANNED = 512
_PROBE = (_SCANNED // 2 + 8) * "[" + (_SCANNED // 2 + 8) * "]"


def _probe(calls: int = 8) -> None:
    """Scan _PROBE ``calls`` calls below the caller; RecursionError if the
    limit leaves no room for that."""
    if calls:
        _probe(calls - 1)
    else:
        schema.scan_once(_PROBE, 0)


def parse_trace_jsonl(text: str) -> list:
    """Parse one JSON event per line; blank lines are ignored.

    Lines end at a newline only. JSON allows U+2028, U+2029 and U+0085 raw
    inside a string, where str.splitlines() would break the line, and a
    carriage return before the newline is JSON whitespace.

    A line is decoded by the C scanner when that takes it whole; any other
    line (padded, ending in a carriage return, holding more than one value,
    or not JSON) goes through json.loads, so every event and every error is
    the one json.loads gives. So does a line long enough to nest as deep as
    the recursion limit might allow from here (see _SCANNED). Equal trace
    ids, agent ids, event types, contents, attrs keys and string attrs
    values share one string object, and a ref is the id object of the
    earlier event it names.
    """
    events = []
    share = {}.setdefault
    with _collector_paused():
        try:
            _probe()
            longest = _SCANNED
        except RecursionError:
            longest = 0
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            end = -1
            if len(line) < longest:
                try:
                    doc, end = schema.scan_once(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    pass
            if end != len(line):
                doc = schema.load_json(line, f"trace line {lineno}", TraceParseError)
            try:
                event = TraceEvent.from_dict(doc)
            except TraceParseError as exc:
                raise TraceParseError(f"trace line {lineno}: {exc}") from None
            event.event_id = share(event.event_id, event.event_id)
            event.trace_id = share(event.trace_id, event.trace_id)
            event.agent_id = share(event.agent_id, event.agent_id)
            event.event_type = share(event.event_type, event.event_type)
            event.content = share(event.content, event.content)
            if event.refs:
                event.refs = [share(ref, ref) for ref in event.refs]
            if event.attrs:
                event.attrs = {share(key, key): share(value, value) if type(value) is str
                               else value for key, value in event.attrs.items()}
            events.append(event)
    return events


def check_event_stream(events) -> None:
    """Enforce ordering and reference invariants on a parsed event list."""
    seen: dict[str, TraceEvent] = {}
    all_ids = {e.event_id for e in events}
    if len(all_ids) != len(events):
        raise TraceParseError("event_ids are not unique within the trace")
    previous = None
    for event in events:
        try:
            stamp = instant(event.timestamp)
        except ValueError:
            raise TraceParseError(f"event {schema.quoted(event.event_id)}: timestamp "
                                  f"{schema.quoted(event.timestamp)} is not ISO-8601") from None
        if previous is not None and stamp < previous:
            raise OutOfOrderTimestampError(
                f"event {schema.quoted(event.event_id)} precedes its predecessor in time"
            )
        previous = stamp
        for ref in event.refs:
            if ref not in seen:
                if ref in all_ids:
                    raise OutOfOrderTimestampError(f"event {schema.quoted(event.event_id)} "
                                                   f"refs later event {schema.quoted(ref)}")
                raise UnresolvedRefError(f"event {schema.quoted(event.event_id)} "
                                         f"refs unknown event {schema.quoted(ref)}")
            referenced = seen[ref]
            if referenced.trace_id != event.trace_id and not (
                event.event_type == "message_received"
                and referenced.event_type == "message_sent"
            ):
                raise UnresolvedRefError(f"event {schema.quoted(event.event_id)} "
                                         f"refs {schema.quoted(ref)} in another trace")
        seen[event.event_id] = event


# ===========================================================================
# stage 1: static extraction
# ===========================================================================


def extract_static(manifest: CapabilityManifest, graph: AgentBomGraph,
                   matcher: DangerMatcher) -> None:
    """Populate the agent registry, capability nodes, and structural edges."""
    shared = _shared_capabilities(manifest)

    for agent in manifest.agents:
        agent_id, role = agent["agent_id"], agent["role"]
        graph.add_agent(AgentDescriptor(agent_id, role, agent["policy_boundary"]))
        agent_node = f"agent.{agent_id}"
        _add_static(graph, matcher, agent_node, NodeKind.AGENT, agent_id,
                    {"role": role} if role else {})

        prompt = agent["system_prompt"]
        if prompt:
            prompt_node = f"prompt.{agent_id}"
            attrs = _optional(
                content=prompt.get("content"),
                source=prompt.get("source"),
                trust_level=prompt.get("trust_level"),
            )
            _add_static(graph, matcher, prompt_node, NodeKind.PROMPT, agent_id, attrs)
            _add_edge(graph, EdgeKind.HAS_PROMPT, agent_node, prompt_node)

        model = agent["model"]
        if model:
            llm_node = f"llm.{agent_id}"
            attrs = _optional(type=model.get("name"))
            provider = model.get("provider")
            if provider:
                attrs["source"] = f"provider://{provider}"
            _add_static(graph, matcher, llm_node, NodeKind.LLM, agent_id, attrs)
            _add_edge(graph, EdgeKind.USES_MODEL, agent_node, llm_node)

        for tool in agent["tools"]:
            node_id = f"tool.{tool['tool_name']}"
            _add_capability(graph, matcher, node_id, NodeKind.TOOL,
                            agent_id, shared, _tool_attrs(tool))
            _add_edge(graph, EdgeKind.LOADS_TOOL, agent_node, node_id)

        for skill in agent["skills"]:
            node_id = f"skill.{skill['skill_name']}"
            _add_capability(graph, matcher, node_id, NodeKind.SKILL,
                            agent_id, shared, _skill_attrs(skill))
            _add_edge(graph, EdgeKind.LOADS_SKILL, agent_node, node_id)

        for store in agent["memory_stores"]:
            node_id = f"mem.{store['store_id']}"
            # memory stores persist across sessions and may be shared, so
            # they never belong to a single agent
            if node_id not in graph.nodes:
                _add_static(graph, matcher, node_id, NodeKind.LONG_TERM_MEMORY,
                            None, _optional(type=store["type"]))
            _add_edge(graph, EdgeKind.SHARES_MEMORY_WITH, agent_node, node_id)

        for dep in agent["code_dependencies"]:
            name, version = dep["name"], dep["version"]
            node_id = f"code.{name}"
            attrs = {"code_file": name}
            if version:
                attrs["content"] = f"{name}=={version}"
            _add_capability(graph, matcher, node_id, NodeKind.CODE,
                            agent_id, shared, attrs)
            _add_edge(graph, EdgeKind.DEPENDS_ON, agent_node, node_id)


def _tool_attrs(tool: dict) -> dict:
    provenance = tool["provenance"]
    attrs = _optional(
        tool_name=tool["tool_name"],
        input_schema=tool["input_schema"],
        source=provenance.get("source"),
        integrity_status=provenance.get("integrity_status"),
        trust_level=provenance.get("trust_level"),
    )
    if tool["permission_scope"]:
        attrs["permission_scope"] = list(tool["permission_scope"])
    return attrs


def _skill_attrs(skill: dict) -> dict:
    provenance = skill["provenance"]
    return _optional(
        tool_name=skill["skill_name"],
        type=skill["declared_function"],
        content=skill["implementation_summary"],
        source=provenance.get("source"),
        integrity_status=provenance.get("integrity_status"),
        trust_level=provenance.get("trust_level"),
    )


def _optional(**pairs) -> dict:
    return {k: v for k, v in pairs.items() if v}


def _shared_capabilities(manifest: CapabilityManifest) -> set:
    """Node ids of tools/skills/code declared by more than one agent."""
    owners: dict[str, set] = {}
    for agent in manifest.agents:
        agent_id = agent["agent_id"]
        for tool in agent["tools"]:
            owners.setdefault(f"tool.{tool['tool_name']}", set()).add(agent_id)
        for skill in agent["skills"]:
            owners.setdefault(f"skill.{skill['skill_name']}", set()).add(agent_id)
        for dep in agent["code_dependencies"]:
            owners.setdefault(f"code.{dep['name']}", set()).add(agent_id)
    return {node_id for node_id, who in owners.items() if len(who) > 1}


def _add_capability(graph, matcher, node_id, kind, agent_id, shared, attrs):
    """Add a tool/skill/code node once; later declarations must agree."""
    if node_id in graph.nodes:
        existing = graph.nodes[node_id]
        flagless = {k: v for k, v in existing.attributes.items() if k != "danger_flags"}
        if flagless != attrs:
            raise ManifestParseError(
                f"{schema.quoted(node_id)} is declared inconsistently by multiple agents"
            )
        return
    owner = None if node_id in shared else agent_id
    _add_static(graph, matcher, node_id, kind, owner, attrs)


def _add_static(graph, matcher, node_id, kind, agent_id, attrs):
    attrs = dict(attrs)
    _merge_flags(attrs, matcher)
    graph.add_node(Node(node_id=node_id, kind=kind, agent_id=agent_id,
                        attributes=attrs))


def _merge_flags(attrs: dict, matcher: DangerMatcher) -> None:
    if "danger_flags" not in attrs:
        flags = matcher.scan(attrs)  # sorted and free of repeats already
        if flags:
            attrs["danger_flags"] = flags
        return
    declared = attrs["danger_flags"]
    if not schema.is_string_list(declared):
        return  # left in place for the attribute-schema check to reject
    merged = sorted(set(matcher.scan(attrs)) | set(declared))
    if merged:
        attrs["danger_flags"] = merged
    else:
        del attrs["danger_flags"]


def _add_edge(graph, kind, source, target, timestamp=None, attributes=None) -> Edge:
    """Insert an edge under the first free id ``e.<kind>.<source>.<target>[.N]``,
    N = 2, 3, ..., and return it."""
    base = f"e.{kind._value_}.{source}.{target}"
    edge_id, suffix, nodes, edges = base, 2, graph.nodes, graph.edges
    while edge_id in edges or edge_id in nodes:
        edge_id = f"{base}.{suffix}"
        suffix += 1
    edge = Edge(edge_id, kind, source, target, timestamp, attributes or {})
    graph.add_edge(edge)
    return edge


# ===========================================================================
# stage 2: event normalization
# ===========================================================================


def normalize_events(graph: AgentBomGraph, events, matcher: DangerMatcher) -> None:
    """Insert one runtime node per event, each followed by its evolution edges.

    A ref becomes flows_to when the two stages are consecutive in the
    cognitive loop, influences otherwise. Refs always point to earlier
    events, so both endpoints are in ``graph`` by then. Refs on
    message_received events are handled by message pairing instead, so no
    evolution edge duplicates that link.
    """
    check_event_stream(events)
    by_id = {e.event_id: e for e in events}

    for event in events:
        kind = _EVENT_KIND[event.event_type]
        attrs = _node_attrs(event, kind)
        declared = attrs.get("basis", [])
        if schema.is_string_list(declared) and "basis" in kind.checks:
            basis = list(dict.fromkeys(list(event.refs) + declared))
            if basis:
                attrs["basis"] = basis
        _merge_flags(attrs, matcher)
        graph.add_node(
            Node(node_id=event.event_id, kind=kind, agent_id=event.agent_id,
                 trace_id=event.trace_id, timestamp=event.timestamp,
                 attributes=attrs)
        )
        if event.event_type == "message_received":
            continue
        for ref in dict.fromkeys(event.refs):
            src_kind = _EVENT_KIND[by_id[ref].event_type]
            edge_kind = _FLOWS_TO if kind.stage == src_kind.stage + 1 else _INFLUENCES
            _add_edge(graph, edge_kind, ref, event.event_id, event.timestamp,
                      {"trace_id": event.trace_id})


def _node_attrs(event: TraceEvent, kind: NodeKind) -> dict:
    attrs = {k: v for k, v in event.attrs.items() if k != "message_id"}
    if event.event_type in _MESSAGE_EVENTS:
        # edge directives live on the propagation edge; keep only what the
        # node schema itself accepts
        attrs = {k: v for k, v in attrs.items()
                 if k not in _EDGE_DIRECTIVE_KEYS or k in kind.checks}
    if event.content:
        attrs.setdefault("content", event.content)
    if event.event_type in _TYPED_EVENTS:
        attrs.setdefault("type", event.event_type)
    return attrs


# ===========================================================================
# stage 3: cross-layer binding
# ===========================================================================


def bind_cross_layer(graph: AgentBomGraph, events, matcher: DangerMatcher) -> tuple:
    """Insert binding and propagation edges; returns (new nodes, new edges).

    One pass in event order. Per trace it remembers the latest decision,
    which every later tool or skill invocation selects, and the stores of
    memory reads that no consumer has taken yet: the next context or
    reasoning step in the same trace reads from all of them.

    The new nodes are synthesized message endpoints for unpaired sends and
    receives; they are attribute-minimal on purpose, so that dropping a real
    endpoint out of a fixture cannot leave flagged content behind.
    """
    node_count, edge_count = len(graph.nodes), len(graph.edges)
    decisions: dict[str, TraceEvent] = {}
    unconsumed: dict[str, list] = {}
    for event in events:
        kind, trace = event.event_type, event.trace_id
        if kind == "decision_made":
            decisions[trace] = event
        elif kind in ("tool_invocation", "skill_invocation"):
            what = kind.split("_")[0]
            target = _named_node(graph, event, "tool_name", what, what)
            if kind == "tool_invocation":
                _bind_edge(graph, _INVOKES, event.event_id, target, event)
            decision = decisions.get(trace)
            if decision is not None:
                _bind_edge(graph, _SELECTS, decision.event_id, target,
                           decision)
        elif kind == "memory_read":
            unconsumed.setdefault(trace, []).append(
                _named_node(graph, event, "target", "mem", "memory store"))
        elif kind in ("context_assembled", "reasoning_step"):
            for mem_id in unconsumed.pop(trace, ()):
                _bind_edge(graph, _READS_FROM, event.event_id, mem_id, event)
        elif kind == "memory_write":
            _bind_edge(graph, _WRITES_TO, event.event_id,
                       _named_node(graph, event, "target", "mem", "memory store"),
                       event, {"content": event.content} if event.content else None)
        elif kind == "delegation":
            _bind_delegation(graph, event)

    _pair_messages(graph, events, matcher)
    return (list(graph.nodes.values())[node_count:],
            list(graph.edges.values())[edge_count:])


def _named_node(graph, event, key, prefix, noun) -> str:
    """The declared node ``<prefix>.<name>`` that ``event.attrs[key]`` names."""
    name = event.attrs.get(key)
    if not name:
        raise TraceParseError(f"{event.event_type} {schema.quoted(event.event_id)} lacks {key}")
    node_id = f"{prefix}.{name}"
    if node_id not in graph.nodes:
        raise UnresolvedRefError(
            f"event {schema.quoted(event.event_id)} names undeclared {noun} {schema.quoted(name)}"
        )
    return node_id


def _bind_delegation(graph, event):
    # the source agent node exists: normalization has already inserted the
    # event's own node, which the graph accepts only for a registered agent
    target_id = _named_node(graph, event, "target_agent", "agent", "agent")
    attrs = {"type": "delegation", "source_agent": event.agent_id,
             "target_agent": event.attrs["target_agent"]}
    dependency = event.attrs.get("task_dependency")
    if dependency:
        attrs["task_dependency"] = dependency
    if event.content:
        attrs["content"] = event.content
    _bind_edge(graph, EdgeKind.DELEGATES_TO, f"agent.{event.agent_id}", target_id,
               event, attrs)


def _bind_edge(graph, kind, source, target, stamped, extra=None):
    """A binding edge that carries the timestamp and trace of ``stamped``."""
    attrs = {"trace_id": stamped.trace_id}
    if extra:
        attrs.update(extra)
    _add_edge(graph, kind, source, target, stamped.timestamp, attrs)


# ---------------------------------------------------------------------------
# message pairing
# ---------------------------------------------------------------------------


def _agents_line_up(sender, receiver) -> bool:
    """Whether a send and a receive can plausibly be the same message.

    The two events must sit on different agents, and any declared
    counterpart (``target_agent`` on the send, ``source_agent`` on the
    receive) has to agree with the other side.
    """
    if sender.agent_id is not None and sender.agent_id == receiver.agent_id:
        return False
    declared_target = sender.attrs.get("target_agent")
    if declared_target is not None and declared_target != receiver.agent_id:
        return False
    declared_source = receiver.attrs.get("source_agent")
    if declared_source is not None and declared_source != sender.agent_id:
        return False
    return True


def _pair_messages(graph, events, matcher):
    """Pair sends with receives and emit one sends_to edge per message.

    The rule: a receive takes the first free send with its message_id,
    else the nearest free send with its content (the latest one not after
    it, else the earliest one after it; equal times go by event_id). Every
    receive gets its message_id pass before any gets its content pass, and
    in both a send qualifies only when the agents line up. A send or
    receive left without a partner gets a synthesized counterpart.
    """
    sent = [e for e in events if e.event_type == "message_sent"]
    received = [e for e in events if e.event_type == "message_received"]
    by_message_id, by_content = {}, {}
    for event in sent:
        key = event.attrs.get("message_id")
        if key is not None:
            by_message_id.setdefault(str(key), []).append(event)
        by_content.setdefault(event.content, []).append(event)
    taken: set[str] = set()
    pairs = []

    def free_senders(candidates, receiver):
        return [c for c in candidates
                if c.event_id not in taken and _agents_line_up(c, receiver)]

    def pair(sender, receiver):
        pairs.append((sender, receiver))
        taken.update((sender.event_id, receiver.event_id))

    for event in received:
        key = event.attrs.get("message_id")
        if key is not None:
            candidates = free_senders(by_message_id.get(str(key), ()), event)
            if candidates:
                pair(candidates[0], event)
    for event in received:
        if event.event_id in taken:
            continue
        candidates = free_senders(by_content.get(event.content, ()), event)
        if candidates:
            recv_stamp = instant(event.timestamp)
            stamp_key = lambda c: (instant(c.timestamp), c.event_id)
            not_after = [c for c in candidates if instant(c.timestamp) <= recv_stamp]
            pair(max(not_after, key=stamp_key) if not_after
                 else min(candidates, key=stamp_key), event)

    pairs += [(e, None) for e in sent if e.event_id not in taken]
    pairs += [(None, e) for e in received if e.event_id not in taken]
    for sender, receiver in pairs:
        _message_edge(graph, matcher, sender, receiver)


def _message_edge(graph, matcher, sender, receiver):
    """Insert the sends_to edge of one message; either side may be None.

    A missing side is synthesized: a sink for an unanswered send, marked
    dropped, or an origin for a receive nobody logged sending. The edge
    takes the content and timestamp of the receive when there is one, the
    trace of the send when there is one, and the edge directives of both
    sides, the receive's winning.
    """
    attrs = {}
    for event in (sender, receiver):
        if event is not None:
            attrs.update((k, v) for k, v in event.attrs.items()
                         if k in _EDGE_DIRECTIVE_KEYS and k != "message_id")
    if sender is None:
        source = _synth_endpoint(graph, f"{receiver.event_id}.origin", NodeKind.ACTION,
                                 receiver, receiver.attrs.get("source_agent"))
    else:
        source = sender.event_id
        attrs.setdefault("source_agent", sender.agent_id)
    if receiver is None:
        target = _synth_endpoint(graph, f"{sender.event_id}.sink", NodeKind.EXTERNAL,
                                 sender, sender.attrs.get("target_agent"))
        attrs["propagation_status"] = "dropped"
    else:
        target = receiver.event_id
        attrs.setdefault("target_agent", receiver.agent_id)
        attrs.setdefault("propagation_status", "delivered")
    attrs["trace_id"] = (sender or receiver).trace_id
    stamped = receiver or sender
    if stamped.content:
        attrs["content"] = stamped.content
    _merge_flags(attrs, matcher)
    _add_edge(graph, _SENDS_TO, source, target, stamped.timestamp, attrs)


def _synth_endpoint(graph, node_id, kind, event, counterpart_agent) -> str:
    """Insert a minimal stand-in node for the missing half of a message."""
    attributes = {"type": "synthesized_endpoint"}
    if (counterpart_agent and counterpart_agent != event.agent_id
            and counterpart_agent in graph.agents):
        agent_id = counterpart_agent
    else:
        # no usable counterpart agent (unknown, or the event's own): anchor
        # to the known side and mark the channel shared so the propagation
        # edge stays legal
        agent_id = event.agent_id
        attributes["shared_state"] = "message_channel"
    return graph.add_node(Node(node_id=node_id, kind=kind, agent_id=agent_id,
                               trace_id=event.trace_id, timestamp=event.timestamp,
                               attributes=attributes))


# ===========================================================================
# assembly
# ===========================================================================


def assemble(manifest: CapabilityManifest, events,
             matcher: DangerMatcher | None = None) -> AgentBomGraph:
    """Build the full graph, checking each element as it goes in, and freeze it.

    Content is scanned through a fresh copy of ``matcher``, whose table of
    scanned texts lives for this build only.
    """
    matcher = (matcher or default_matcher()).fresh()
    graph = AgentBomGraph()
    with _collector_paused():
        extract_static(manifest, graph, matcher)
        normalize_events(graph, events, matcher)
        bind_cross_layer(graph, events, matcher)
    graph.freeze()
    return graph
