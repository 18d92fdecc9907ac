from __future__ import annotations

import gc
import json
import random
from datetime import datetime

import pytest

from agentbom import graph as graph_module
from agentbom import ingestion, scenarios, schema
from agentbom.errors import (
    ManifestParseError,
    OutOfOrderTimestampError,
    TraceParseError,
    UnresolvedRefError,
)
from agentbom.ingestion import (
    TraceEvent,
    assemble,
    check_event_stream,
    parse_manifest,
    parse_manifest_json,
    parse_trace_jsonl,
)
from agentbom.rules import audit
from agentbom.schema import EdgeKind, NodeKind


def _manifest(**overrides):
    agent = {
        "agent_id": "a1",
        "role": "helper",
        "policy_boundary": "workspace only",
        "system_prompt": {"content": "Be careful.", "trust_level": "trusted"},
        "model": {"name": "m-large", "provider": "acme"},
        "tools": [
            {
                "tool_name": "exec",
                "input_schema": "command:string",
                "permission_scope": ["filesystem"],
                "provenance": {"source": "registry://tools/exec",
                               "integrity_status": "valid",
                               "trust_level": "trusted"},
            }
        ],
        "skills": [],
        "memory_stores": [{"store_id": "notes", "type": "keyvalue"}],
        "code_dependencies": [{"name": "libfoo", "version": "1.0"}],
    }
    agent.update(overrides)
    return parse_manifest({"agents": [agent]})


_COUNTER = {"n": 0}


def _event(event_id, event_type, content="", refs=(), attrs=None,
           agent="a1", trace="t1", minute=None):
    if minute is None:
        _COUNTER["n"] += 1
        minute = _COUNTER["n"]
    return TraceEvent(
        event_id=event_id,
        trace_id=trace,
        agent_id=agent,
        timestamp=f"2026-03-01T10:{minute:02d}:00Z",
        event_type=event_type,
        content=content,
        refs=list(refs),
        attrs=dict(attrs or {}),
    )


@pytest.fixture(autouse=True)
def _reset_clock():
    _COUNTER["n"] = 0


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------

def test_manifest_round_trip():
    manifest = _manifest()
    again = parse_manifest(manifest.to_dict())
    assert again.to_dict() == manifest.to_dict()
    assert parse_manifest_json(manifest.to_json()).to_dict() == manifest.to_dict()


def test_manifest_requires_agents():
    with pytest.raises(ManifestParseError):
        parse_manifest({"agents": []})
    with pytest.raises(ManifestParseError):
        parse_manifest({"something": "else"})


def test_manifest_rejects_duplicate_agent_ids():
    doc = {"agents": [{"agent_id": "a1"}, {"agent_id": "a1"}]}
    with pytest.raises(ManifestParseError):
        parse_manifest(doc)


def test_manifest_rejects_duplicate_tool_names():
    doc = {
        "agents": [
            {"agent_id": "a1",
             "tools": [{"tool_name": "exec"}, {"tool_name": "exec"}]}
        ]
    }
    with pytest.raises(ManifestParseError):
        parse_manifest(doc)


def test_manifest_json_parse_failure():
    with pytest.raises(ManifestParseError):
        parse_manifest_json("{not json")


# each object of a parsed manifest -> its table: the agent, then the entries
# of each section
_MANIFEST_TABLES = [
    (None, schema.MANIFEST_AGENT), ("tools", schema.MANIFEST_TOOL),
    ("skills", schema.MANIFEST_SKILL), ("memory_stores", schema.MANIFEST_MEMORY),
    ("code_dependencies", schema.MANIFEST_CODE),
]


def _manifest_objects(manifest, section):
    for agent in manifest.agents:
        yield from [agent] if section is None else agent[section]


# the empty value a field of each type holds when it is left out
_EMPTY = {schema.STRING: "", schema.ARRAY: [], schema.OBJECT: {}}


@pytest.mark.parametrize("section, table", _MANIFEST_TABLES,
                         ids=[section or "agents" for section, _ in _MANIFEST_TABLES])
def test_manifest_objects_hold_exactly_their_tables_fields(fixtures, section, table):
    """Every field of the table is there, in its order, and one left out
    holds the empty value of its type."""
    name_key = "agent_id" if section is None else _NAME_KEY[section]
    agent = {"agent_id": "x"}
    if section is not None:
        agent = {"agent_id": "a1", section: [{name_key: "x"}]}
    bare = next(_manifest_objects(parse_manifest({"agents": [agent]}), section))
    assert bare == {key: "x" if key == name_key else _EMPTY[json_type]
                    for key, (json_type, _) in table.fields.items()}
    objects = [bare]
    for fx in fixtures.values():
        objects += _manifest_objects(fx.manifest, section)
    for obj in objects:
        assert list(obj) == list(table.fields)


def _scribble(value):
    """Change every list and object under ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in list(value):
            _scribble(item)
        value.append("scribbled")


# values nested below the fields, where only a deep copy shares nothing
_NESTED_MANIFEST = {"agents": [{
    "agent_id": "a1", "system_prompt": {"content": ["be", {"careful": True}]},
    "tools": [{"tool_name": "t", "provenance": {"source": {"registry": ["r"]}}}]}]}


@pytest.mark.parametrize("source", [*scenarios.SCENARIO_IDS, "nested"])
def test_a_manifest_shares_nothing_with_its_document_or_its_dict(fixtures, source):
    doc = (json.loads(json.dumps(_NESTED_MANIFEST)) if source == "nested"
           else fixtures[source].manifest.to_dict())
    manifest = parse_manifest(doc)
    text = manifest.to_json()
    _scribble(doc)
    assert manifest.to_json() == text
    _scribble(manifest.to_dict())
    assert manifest.to_json() == text


# every manifest text field: the agent section that holds it (None for the
# agent itself) and its key, which is also the parsed field's name
_TEXT_FIELDS = [
    (None, "role"), (None, "policy_boundary"), ("tools", "input_schema"),
    ("skills", "declared_function"), ("skills", "implementation_summary"),
    ("memory_stores", "type"), ("code_dependencies", "version"),
]
_NAME_KEY = {"tools": "tool_name", "skills": "skill_name",
             "memory_stores": "store_id", "code_dependencies": "name"}


_ABSENT = object()


def _text_field_doc(section, key, value):
    field = {} if value is _ABSENT else {key: value}
    if section is None:
        return {"agents": [dict(field, agent_id="a1")]}
    entry = dict(field, **{_NAME_KEY[section]: "x"})
    return {"agents": [{"agent_id": "a1", section: [entry]}]}


def _what(section):
    """How a message names the manifest object that holds a field."""
    return "manifest agents[0]" if section is None else f"agent 'a1' {section}[0]"


def _text_field(manifest, section, key):
    agent = manifest.agents[0]
    return (agent if section is None else agent[section][0])[key]


@pytest.mark.parametrize("section, key", _TEXT_FIELDS)
def test_manifest_text_fields_take_strings_and_load_null_as_absent(section, key):
    for value, parsed in ((_ABSENT, ""), (None, ""), ("kept", "kept")):
        manifest = parse_manifest(_text_field_doc(section, key, value))
        assert _text_field(manifest, section, key) == parsed
    for bad in (5, 1.5, True, ["x"], {"a": "b"}):
        with pytest.raises(ManifestParseError) as raised:
            parse_manifest(_text_field_doc(section, key, bad))
        assert str(raised.value) == (f"{_what(section)} field {key!r} must be a string, "
                                     f"got {bad!r}")


# ---------------------------------------------------------------------------
# trace parsing and stream checks
# ---------------------------------------------------------------------------

def test_trace_jsonl_skips_blank_lines_and_reports_line_numbers():
    good = json.dumps(_event("ev1", "external_input", "hi").to_dict())
    events = parse_trace_jsonl(good + "\n\n" + good.replace("ev1", "ev2") + "\n")
    assert [e.event_id for e in events] == ["ev1", "ev2"]

    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace_jsonl(good + "\n{broken\n")


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_trace_lines_end_at_a_newline_only(separator):
    # JSON allows these raw inside a string; str.splitlines() breaks at them
    content = f"one{separator}two"
    first = json.dumps(dict(_EVENT_DOC, content=content), ensure_ascii=False)
    second = first.replace('"ev1"', '"ev2"')
    events = parse_trace_jsonl(f"{first}\n\n{second}\n")
    assert [(e.event_id, e.content) for e in events] == [("ev1", content), ("ev2", content)]
    # CRLF line ends still parse, and line numbers still count newlines
    assert parse_trace_jsonl(f"{first}\r\n\r\n{second}\r\n") == events
    with pytest.raises(TraceParseError, match="^trace line 3 is not valid JSON"):
        parse_trace_jsonl(f"{first}\r\n{second}\r\n{{broken\r\n")


def test_trace_event_rejects_unknown_type_and_missing_fields():
    doc = _event("ev1", "external_input").to_dict()
    doc["event_type"] = "daydream"
    with pytest.raises(TraceParseError):
        TraceEvent.from_dict(doc)
    with pytest.raises(TraceParseError):
        TraceEvent.from_dict({"event_id": "ev1"})


_EVENT_DOC = {"event_id": "ev1", "trace_id": "t1", "agent_id": "a1",
              "timestamp": "2026-03-01T10:00:00Z", "event_type": "external_input"}


@pytest.mark.parametrize("key", ["event_id", "trace_id", "agent_id", "timestamp",
                                 "event_type"])
@pytest.mark.parametrize("bad", [7, 20260301, 1.5, True, ["x"], {"x": "y"}])
def test_trace_event_ids_and_stamps_must_be_strings(key, bad):
    doc = dict(_EVENT_DOC, **{key: bad})
    with pytest.raises(TraceParseError, match=f"'{key}' must be a string"):
        TraceEvent.from_dict(doc)
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace_jsonl(json.dumps(doc) + "\n")


def test_trace_event_content_is_a_string_or_null():
    for doc, content in ((_EVENT_DOC, ""), (dict(_EVENT_DOC, content=None), ""),
                         (dict(_EVENT_DOC, content="hi"), "hi")):
        assert TraceEvent.from_dict(doc).content == content
    for bad in (5, ["hi"], {"text": "hi"}, False):
        with pytest.raises(TraceParseError, match="'content' must be a string"):
            TraceEvent.from_dict(dict(_EVENT_DOC, content=bad))


def test_a_timestamp_that_does_not_parse_names_its_event():
    events = parse_trace_jsonl(json.dumps(dict(_EVENT_DOC, timestamp="garbage")))
    with pytest.raises(TraceParseError) as raised:
        check_event_stream(events)
    assert str(raised.value) == "event 'ev1': timestamp 'garbage' is not ISO-8601"


@pytest.mark.parametrize("section", [None, *_NAME_KEY])
@pytest.mark.parametrize("bad", [5, 1.5, True, ["x"], {"a": "b"}])
def test_manifest_names_must_be_strings(section, bad):
    if section is None:
        doc, key = {"agents": [{"agent_id": bad}]}, "agent_id"
    else:
        key = _NAME_KEY[section]
        doc = {"agents": [{"agent_id": "a1", section: [{key: bad}]}]}
    with pytest.raises(ManifestParseError) as raised:
        parse_manifest(doc)
    assert str(raised.value) == f"{_what(section)} field {key!r} must be a string, got {bad!r}"


def test_stream_check_rejects_duplicate_ids():
    events = [_event("ev1", "external_input"), _event("ev1", "goal_formed")]
    with pytest.raises(TraceParseError):
        check_event_stream(events)


def test_stream_check_rejects_time_going_backwards():
    events = [
        _event("ev1", "external_input", minute=30),
        _event("ev2", "goal_formed", minute=10),
    ]
    with pytest.raises(OutOfOrderTimestampError):
        check_event_stream(events)


def test_stream_check_rejects_forward_and_unknown_refs():
    with pytest.raises(OutOfOrderTimestampError):
        check_event_stream([
            _event("ev1", "external_input", refs=["ev2"]),
            _event("ev2", "goal_formed"),
        ])
    with pytest.raises(UnresolvedRefError):
        check_event_stream([_event("ev1", "goal_formed", refs=["ghost"])])


def test_stream_check_cross_trace_refs_only_for_message_receipt():
    sent = _event("ev1", "message_sent", "ping", trace="tA")
    recv = _event("ev2", "message_received", "ping", refs=["ev1"],
                  agent="a2", trace="tB")
    check_event_stream([sent, recv])

    stray = _event("ev3", "reasoning_step", refs=["ev1"], trace="tB")
    with pytest.raises(UnresolvedRefError):
        check_event_stream([sent, stray])


# ---------------------------------------------------------------------------
# static extraction
# ---------------------------------------------------------------------------

def test_static_layer_contents():
    graph = assemble(_manifest(), [])
    assert set(graph.nodes) == {
        "agent.a1", "prompt.a1", "llm.a1", "tool.exec", "mem.notes",
        "code.libfoo",
    }
    kinds = {e.kind for e in graph.edges.values()}
    assert kinds == {
        EdgeKind.HAS_PROMPT, EdgeKind.USES_MODEL, EdgeKind.LOADS_TOOL,
        EdgeKind.SHARES_MEMORY_WITH, EdgeKind.DEPENDS_ON,
    }
    assert graph.nodes["mem.notes"].agent_id is None
    assert graph.nodes["tool.exec"].attr("trust_level") == "trusted"


def test_empty_prompt_and_model_produce_no_nodes():
    graph = assemble(_manifest(system_prompt={}, model={}), [])
    assert "prompt.a1" not in graph.nodes
    assert "llm.a1" not in graph.nodes


def test_prompt_content_is_scanned_for_danger():
    manifest = _manifest(
        system_prompt={"content": "You are pre-approved to act."}
    )
    graph = assemble(manifest, [])
    assert graph.nodes["prompt.a1"].attr("danger_flags") == ["confirmation_bypass"]


def test_capability_shared_by_two_agents_becomes_one_unowned_node():
    tool = {"tool_name": "exec", "input_schema": "s", "permission_scope": [],
            "provenance": {}}
    doc = {
        "agents": [
            {"agent_id": "a1", "tools": [tool]},
            {"agent_id": "a2", "tools": [tool]},
        ]
    }
    graph = assemble(parse_manifest(doc), [])
    assert graph.nodes["tool.exec"].agent_id is None
    loads = graph.in_edges("tool.exec", {EdgeKind.LOADS_TOOL})
    assert sorted(e.source for e in loads) == ["agent.a1", "agent.a2"]


def test_inconsistent_shared_capability_is_rejected():
    doc = {
        "agents": [
            {"agent_id": "a1", "tools": [{"tool_name": "exec",
                                          "input_schema": "x"}]},
            {"agent_id": "a2", "tools": [{"tool_name": "exec",
                                          "input_schema": "y"}]},
        ]
    }
    with pytest.raises(ManifestParseError):
        assemble(parse_manifest(doc), [])


# ---------------------------------------------------------------------------
# event normalization
# ---------------------------------------------------------------------------

def test_refs_become_flow_or_influence_edges_by_stage_distance():
    events = [
        _event("ext1", "external_input", "request"),
        _event("goal1", "goal_formed", "do it", refs=["ext1"]),
        _event("ctx1", "context_assembled", "ctx", refs=["goal1", "ext1"]),
    ]
    graph = assemble(_manifest(), events)
    assert graph.element("e.flows_to.ext1.goal1").kind is EdgeKind.FLOWS_TO
    assert graph.element("e.flows_to.goal1.ctx1").kind is EdgeKind.FLOWS_TO
    # external -> context skips a stage
    assert graph.element("e.influences.ext1.ctx1").kind is EdgeKind.INFLUENCES
    assert graph.nodes["ctx1"].attr("basis") == ["goal1", "ext1"]


def test_event_id_that_spells_an_edge_id_pushes_the_edge_to_a_suffix():
    events = [
        _event("ext1", "external_input", "request"),
        _event("e.flows_to.ext1.goal1", "observation", "looks like an edge id"),
        _event("goal1", "goal_formed", "do it", refs=["ext1"]),
    ]
    graph = assemble(_manifest(), events)
    assert graph.nodes["e.flows_to.ext1.goal1"].kind is NodeKind.OBSERVATION
    assert graph.element("e.flows_to.ext1.goal1.2").source == "ext1"


def test_typed_events_keep_their_type_and_content_flags():
    events = [
        _event("dec1", "decision_made", "write it down"),
        _event("act1", "memory_write", "rm -rf /tmp/x", refs=["dec1"],
               attrs={"target": "notes"}),
    ]
    graph = assemble(_manifest(), events)
    node = graph.nodes["act1"]
    assert node.kind is NodeKind.ACTION
    assert node.attr("type") == "memory_write"
    assert node.attr("danger_flags") == ["destructive_command"]


# ---------------------------------------------------------------------------
# cross-layer binding
# ---------------------------------------------------------------------------

def test_tool_invocation_binds_invokes_and_selects():
    events = [
        _event("dec1", "decision_made", "use exec"),
        _event("act1", "tool_invocation", "running", refs=["dec1"],
               attrs={"tool_name": "exec", "parameters": {"command": "ls"}}),
    ]
    graph = assemble(_manifest(), events)
    assert graph.element("e.invokes.act1.tool.exec").target == "tool.exec"
    assert graph.element("e.selects.dec1.tool.exec").source == "dec1"


def test_tool_invocation_requires_declared_tool():
    events = [_event("act1", "tool_invocation", attrs={"tool_name": "mystery"})]
    with pytest.raises(UnresolvedRefError):
        assemble(_manifest(), events)
    with pytest.raises(TraceParseError):
        assemble(_manifest(), [_event("act1", "tool_invocation")])


def test_memory_write_then_read_bind_to_the_store():
    events = [
        _event("act1", "memory_write", "remember this",
               attrs={"target": "notes"}),
        _event("act2", "memory_read", "recalling", attrs={"target": "notes"}),
        _event("ctx1", "context_assembled", "with memory", refs=["act2"]),
    ]
    graph = assemble(_manifest(), events)
    write = graph.element("e.writes_to.act1.mem.notes")
    assert write.attr("content") == "remember this"
    read = graph.element("e.reads_from.ctx1.mem.notes")
    assert read.source == "ctx1"


def test_memory_access_requires_declared_store():
    events = [_event("act1", "memory_write", attrs={"target": "elsewhere"})]
    with pytest.raises(UnresolvedRefError):
        assemble(_manifest(), events)


def test_delegation_becomes_agent_to_agent_edge():
    doc = {"agents": [{"agent_id": "a1"}, {"agent_id": "a2"}]}
    events = [
        _event("dec1", "delegation", "handle the report",
               attrs={"target_agent": "a2", "task_dependency": "report"}),
    ]
    graph = assemble(parse_manifest(doc), events)
    edge = graph.element("e.delegates_to.agent.a1.agent.a2")
    assert edge.kind is EdgeKind.DELEGATES_TO
    assert edge.attr("task_dependency") == "report"
    assert edge.attr("source_agent") == "a1"


def test_delegation_to_unknown_agent_fails():
    events = [_event("dec1", "delegation", attrs={"target_agent": "ghost"})]
    with pytest.raises(UnresolvedRefError):
        assemble(_manifest(), events)


# ---------------------------------------------------------------------------
# message pairing
# ---------------------------------------------------------------------------

def _two_agents():
    return parse_manifest({"agents": [{"agent_id": "a1"}, {"agent_id": "a2"}]})


def test_messages_pair_on_message_id():
    events = [
        _event("act1", "message_sent", "ping",
               attrs={"message_id": "m-1", "target_agent": "a2",
                      "integrity_status": "valid"}),
        _event("ext1", "message_received", "ping", agent="a2", trace="t2",
               attrs={"message_id": "m-1", "source_agent": "a1"}),
    ]
    graph = assemble(_two_agents(), events)
    edge = graph.element("e.sends_to.act1.ext1")
    assert edge.kind is EdgeKind.SENDS_TO
    assert edge.attr("integrity_status") == "valid"
    assert edge.attr("propagation_status") == "delivered"
    assert edge.attr("source_agent") == "a1"
    assert edge.attr("target_agent") == "a2"
    # no synthesized endpoints needed
    assert not [n for n in graph.nodes if n.endswith((".sink", ".origin"))]


def test_messages_pair_on_content_when_ids_are_absent():
    events = [
        _event("act1", "message_sent", "status: done"),
        _event("ext1", "message_received", "status: done", agent="a2",
               trace="t2"),
    ]
    graph = assemble(_two_agents(), events)
    assert graph.has_element("e.sends_to.act1.ext1")


def test_mismatched_counterpart_agents_prevent_pairing():
    events = [
        _event("act1", "message_sent", "hello",
               attrs={"target_agent": "a2"}),
        _event("ext1", "message_received", "hello", agent="a2", trace="t2",
               attrs={"source_agent": "someone_else"}),
    ]
    graph = assemble(_two_agents(), events)
    assert not graph.has_element("e.sends_to.act1.ext1")
    assert graph.has_element("act1.sink")
    assert graph.has_element("ext1.origin")


def test_unpaired_send_gets_a_sink_on_the_target_agent():
    events = [
        _event("act1", "message_sent", "fire and forget",
               attrs={"target_agent": "a2"}),
    ]
    graph = assemble(_two_agents(), events)
    sink = graph.nodes["act1.sink"]
    assert sink.kind is NodeKind.EXTERNAL
    assert sink.agent_id == "a2"
    edge = graph.element("e.sends_to.act1.act1.sink")
    assert edge.attr("propagation_status") == "dropped"


def test_unpaired_receive_from_outside_synthesizes_a_shared_channel_origin():
    events = [
        _event("ext1", "message_received", "external ping",
               attrs={"source_agent": "not_in_manifest"}),
    ]
    graph = assemble(_manifest(), events)
    origin = graph.nodes["ext1.origin"]
    assert origin.kind is NodeKind.ACTION
    assert origin.agent_id == "a1"
    assert origin.attr("shared_state") == "message_channel"
    assert graph.has_element("e.sends_to.ext1.origin.ext1")


def test_message_id_within_one_agent_synthesizes_both_ends():
    events = [
        _event("act1", "message_sent", "note", attrs={"message_id": "m-1"}),
        _event("ext1", "message_received", "note", attrs={"message_id": "m-1"}),
    ]
    graph = assemble(_two_agents(), events)
    assert graph.validate() == []
    assert not graph.has_element("e.sends_to.act1.ext1")
    for end in ("act1.sink", "ext1.origin"):
        assert graph.nodes[end].agent_id == "a1"
        assert graph.nodes[end].attr("shared_state") == "message_channel"
    assert graph.has_element("e.sends_to.act1.act1.sink")
    assert graph.has_element("e.sends_to.ext1.origin.ext1")


def test_message_id_skips_a_send_declared_for_another_agent():
    manifest = parse_manifest({"agents": [{"agent_id": a} for a in ("a1", "a2", "a3")]})
    events = [
        _event("act1", "message_sent", "ping",
               attrs={"message_id": "m-1", "target_agent": "a3"}),
        _event("act2", "message_sent", "pong", attrs={"message_id": "m-1"}),
        _event("ext1", "message_received", "ping", agent="a2", trace="t2",
               attrs={"message_id": "m-1"}),
    ]
    graph = assemble(manifest, events)
    assert not graph.has_element("e.sends_to.act1.ext1")
    assert graph.has_element("e.sends_to.act2.ext1")
    assert graph.nodes["act1.sink"].agent_id == "a3"


def _oracle_pairs(events):
    """Message pairing restated by hand, as (send id, receive id) pairs.

    Receives with a message_id take the first unused send with that id
    whose agents line up, in event order. Every receive still unpaired then
    takes, among unused sends with the same content whose agents line up,
    the latest one not after it, else the earliest one after it; equal
    times go by event_id. Each send is used once.
    """
    def when(event):
        return datetime.fromisoformat(event.timestamp.replace("Z", "+00:00"))

    def lines_up(send, receive):
        return (send.agent_id != receive.agent_id
                and send.attrs.get("target_agent", receive.agent_id) == receive.agent_id
                and receive.attrs.get("source_agent", send.agent_id) == send.agent_id)

    sends = [e for e in events if e.event_type == "message_sent"]
    receives = [e for e in events if e.event_type == "message_received"]
    used, pairs = set(), []
    for receive in receives:
        wanted = receive.attrs.get("message_id")
        for send in sends:
            if (wanted is not None and send.event_id not in used
                    and send.attrs.get("message_id") == wanted
                    and lines_up(send, receive)):
                used |= {send.event_id, receive.event_id}
                pairs.append((send.event_id, receive.event_id))
                break
    for receive in receives:
        if receive.event_id in used:
            continue
        options = sorted((s for s in sends if s.event_id not in used
                          and s.content == receive.content and lines_up(s, receive)),
                         key=lambda s: (when(s), s.event_id))
        if not options:
            continue
        before = [s for s in options if when(s) <= when(receive)]
        best = before[-1] if before else options[0]
        used |= {best.event_id, receive.event_id}
        pairs.append((best.event_id, receive.event_id))
    return pairs


def _random_messages(rng):
    """Sends and receives among three agents in time order, with shared
    times, shared contents, declared counterparts that may disagree with
    the other side, and message ids that never join two events of one
    agent."""
    agents = ["a1", "a2", "a3"]
    routes = {f"m{i}": rng.sample(agents, 2) for i in range(3)}
    ids = rng.sample(range(1000), rng.randint(2, 16))
    minutes = sorted(rng.randrange(8) for _ in ids)
    events = []
    for event_id, minute in zip(ids, minutes):
        sending = rng.random() < 0.5
        attrs = {}
        if rng.random() < 0.25:
            message_id = rng.choice(sorted(routes))
            attrs["message_id"] = message_id
            agent = routes[message_id][0 if sending else 1]
        else:
            agent = rng.choice(agents)
        if rng.random() < 0.3:
            others = [a for a in agents if a != agent]
            attrs["target_agent" if sending else "source_agent"] = rng.choice(others)
        events.append(_event(f"ev{event_id:03d}",
                             "message_sent" if sending else "message_received",
                             rng.choice(("ping", "pong")), attrs=attrs, agent=agent,
                             trace=f"t.{agent}", minute=minute))
    return events


def test_message_pairing_matches_the_restated_rule():
    manifest = parse_manifest({"agents": [{"agent_id": a} for a in ("a1", "a2", "a3")]})
    mismatches = []
    by_id = by_content = after = 0
    for seed in range(300):
        rng = random.Random(71_000 + seed)
        events = _random_messages(rng)
        graph = assemble(manifest, events)
        event_ids = {e.event_id for e in events}
        got = sorted((e.source, e.target) for e in graph.edges.values()
                     if e.kind is EdgeKind.SENDS_TO
                     and e.source in event_ids and e.target in event_ids)
        want = _oracle_pairs(events)
        if got != sorted(want):
            mismatches.append(seed)
        stamps = {e.event_id: e.timestamp for e in events}
        with_id = {e.event_id for e in events if "message_id" in e.attrs}
        by_id += sum(r in with_id for _, r in want)
        by_content += sum(r not in with_id for _, r in want)
        after += sum(stamps[s] > stamps[r] for s, r in want)
    assert mismatches == []
    assert by_id > 120 and by_content > 300 and after > 150


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_validates_and_freezes():
    graph = assemble(_manifest(), [_event("ext1", "external_input", "go")])
    assert graph.frozen
    assert graph.validate() == []


def test_assemble_is_deterministic():
    events = [
        _event("ext1", "external_input", "go", minute=1),
        _event("goal1", "goal_formed", "ok", refs=["ext1"], minute=2),
    ]
    first = assemble(_manifest(), events)
    second = assemble(_manifest(), events)
    assert first.digest() == second.digest()
    assert first.to_json() == second.to_json()


def test_binding_follows_event_order_within_each_trace():
    manifest = _manifest(skills=[{"skill_name": "summarize"}])
    events = [
        _event("dec1", "decision_made", "first plan"),
        _event("rd1", "memory_read", attrs={"target": "notes"}),
        _event("rd2", "memory_read", attrs={"target": "notes"}),
        # another trace, interleaved in time: it must not take t1's reads
        _event("ctx9", "context_assembled", "elsewhere", trace="t2"),
        _event("rd9", "memory_read", attrs={"target": "notes"}, trace="t2"),
        _event("dec2", "decision_made", "second plan"),
        _event("act1", "tool_invocation", attrs={"tool_name": "exec"}),
        _event("sk1", "skill_invocation", attrs={"tool_name": "summarize"}),
        _event("ctx1", "context_assembled", "with memory"),
        _event("rs1", "reasoning_step", "the reads were taken already"),
    ]
    graph = assemble(manifest, events)
    reads = sorted(
        (e.edge_id, e.timestamp, e.attr("trace_id"))
        for e in graph.edges.values() if e.kind is EdgeKind.READS_FROM
    )
    # both t1 reads feed the next t1 consumer and carry its timestamp; the
    # t2 read has no later consumer in t2 and so binds nothing
    stamp = graph.nodes["ctx1"].timestamp
    assert reads == [
        ("e.reads_from.ctx1.mem.notes", stamp, "t1"),
        ("e.reads_from.ctx1.mem.notes.2", stamp, "t1"),
    ]
    selects = sorted(
        (e.edge_id, e.timestamp)
        for e in graph.edges.values() if e.kind is EdgeKind.SELECTS
    )
    # the latest earlier decision selects, with its own timestamp
    assert selects == [
        ("e.selects.dec2.skill.summarize", graph.nodes["dec2"].timestamp),
        ("e.selects.dec2.tool.exec", graph.nodes["dec2"].timestamp),
    ]
    invokes = [e.edge_id for e in graph.edges.values() if e.kind is EdgeKind.INVOKES]
    assert invokes == ["e.invokes.act1.tool.exec"]


# ---------------------------------------------------------------------------
# the paused cycle collector
# ---------------------------------------------------------------------------

_STAGES = ("extract_static", "normalize_events", "bind_cross_layer")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
def test_parsing_and_assembly_restore_the_collector_state(monkeypatch, enabled, fails):
    seen = []

    def recording(name, original):
        def stage(*args):
            seen.append((name, gc.isenabled()))
            return original(*args)
        return stage

    for name in _STAGES:
        monkeypatch.setattr(ingestion, name, recording(name, getattr(ingestion, name)))
    from_dict = TraceEvent.from_dict.__func__
    monkeypatch.setattr(TraceEvent, "from_dict",
                        classmethod(recording("from_dict", from_dict)))
    tool = "mystery" if fails else "exec"
    text = json.dumps(_event("act1", "tool_invocation", attrs={"tool_name": tool}).to_dict())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(TraceParseError):
                parse_trace_jsonl(text + "\n{broken\n")
            assert gc.isenabled() is enabled
        events = parse_trace_jsonl(text)
        assert gc.isenabled() is enabled
        if fails:
            with pytest.raises(UnresolvedRefError):
                assemble(_manifest(), events)
        else:
            assemble(_manifest(), events)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # every event was parsed, and every stage ran, with the collector paused
    names = [name for name, _ in seen]
    assert names == ["from_dict"] * (2 if fails else 1) + list(_STAGES)
    assert {state for _, state in seen} == {False}


@pytest.mark.parametrize("scenario_id", scenarios.SCENARIO_IDS)
def test_parsing_and_assembly_leave_no_reference_cycles(scenario_id):
    fixture = scenarios.generate(scenario_id, seed=0)
    manifest_text = fixture.manifest.to_json()
    trace_text = "".join(json.dumps(e.to_dict()) + "\n" for e in fixture.events)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        manifest = parse_manifest_json(manifest_text)
        events = parse_trace_jsonl(trace_text)
        after_parsing = gc.collect()
        graph = assemble(manifest, events)
        after_assembly = gc.collect()
    finally:
        if was:
            gc.enable()
    assert (after_parsing, after_assembly) == (0, 0)
    assert graph.to_json() == fixture.build().to_json()


@pytest.mark.parametrize("scenario_id", scenarios.SCENARIO_IDS)
def test_each_distinct_stamp_is_parsed_once_per_process(monkeypatch, scenario_id):
    """Every reader of a stamp asks graph.instant, so a build parses each
    distinct stamp once, and reloading, validating and auditing its graph in
    the same process parses none."""
    fixture = scenarios.generate(scenario_id, seed=0)
    parsed = []
    parse = graph_module.parse_instant
    monkeypatch.setattr(graph_module, "parse_instant",
                        lambda text: parsed.append(text) or parse(text))
    graph_module._STAMPS.clear()
    graph = fixture.build()
    assert sorted(parsed) == sorted({event.timestamp for event in fixture.events})
    parsed.clear()
    loaded = graph_module.AgentBomGraph.from_json(graph.to_json())
    assert loaded.validate() == []
    assert audit(loaded).risk_ids() == fixture.expected_risk_ids()
    assert parsed == []
