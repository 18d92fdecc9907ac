"""The record classes behave as value records: keyword and positional
construction, fresh mutable defaults, value equality, a field-listing repr,
and, for the frozen ones, immutability and a value hash."""

from __future__ import annotations

import copy
import inspect
import pickle
import re

import pytest

from agentbom.graph import AgentDescriptor, Edge, Node, Violation
from agentbom.ingestion import CapabilityManifest, TraceEvent
from agentbom.matchers import DangerPattern
from agentbom.predicates import HasFlag
from agentbom.record import FRESH, FrozenRecord, Record
from agentbom.rules import AuditReport, AuditRule, Clause, EntrySelector, EvidenceItem, Finding
from agentbom.scenarios import ExpectedFinding, Fixture
from agentbom.schema import EdgeKind, NodeKind
from agentbom.traversal import BACKWARD, FORWARD, AuditPath, PathSpec

_FLAGGED = HasFlag()
_BACK = PathSpec(BACKWARD, frozenset({EdgeKind.READS_FROM}))
_FWD = PathSpec(FORWARD, frozenset({EdgeKind.WRITES_TO}), frozenset({NodeKind.LONG_TERM_MEMORY}),
                _FLAGGED, 4, True)
_ENTRY = EntrySelector("node", ("LongTermMemoryNode",), _FLAGGED)
_CLAUSES = [Clause("entry", "exists", _FLAGGED), Clause("fwd_path", "forall", _FLAGGED)]
_EVENT = TraceEvent("e1", "t1", "a", "2026-03-01T10:00:00Z", "memory_write", "hi",
                    ["e0"], {"store_id": "m"})
_AGENT = {"agent_id": "a", "role": "planner", "policy_boundary": "pb",
          "system_prompt": {"content": "be nice"}, "model": {"name": "m"},
          "tools": [{"tool_name": "exec", "input_schema": "", "permission_scope": [],
                     "provenance": {}}],
          "skills": [], "memory_stores": [{"store_id": "m", "type": ""}],
          "code_dependencies": []}
_PATH = AuditPath(FORWARD, ("n1", "e1", "n2"), 2)

# class -> every field's value, in order, and one field changed
_RECORDS = {
    AgentDescriptor: (dict(agent_id="a", role="planner", policy_boundary="pb"),
                      dict(role="executor")),
    Node: (dict(node_id="n", kind=NodeKind.LONG_TERM_MEMORY, agent_id="a", trace_id="t",
                timestamp="2026-03-01T10:00:00Z", attributes={"store_id": "m"}),
           dict(attributes={})),
    Edge: (dict(edge_id="e", kind=EdgeKind.WRITES_TO, source="n1", target="n2",
                timestamp="2026-03-01T10:00:00Z", attributes={"trace_id": "t"}),
           dict(target="n3")),
    Violation: (dict(code="empty_id", element_id="n", message="empty"),
                dict(message="other")),
    CapabilityManifest: (dict(agents=[_AGENT]), dict(agents=[])),
    TraceEvent: (dict(event_id="e1", trace_id="t1", agent_id="a",
                      timestamp="2026-03-01T10:00:00Z", event_type="memory_write",
                      content="hi", refs=["e0"], attrs={"store_id": "m"}),
                 dict(refs=["e9"])),
    DangerPattern: (dict(flag="f", pattern="rm", applies_to=("content",)),
                    dict(applies_to=("parameters",))),
    EntrySelector: (dict(element_class="node", kinds=("LongTermMemoryNode",), predicate=_FLAGGED),
                    dict(kinds=("ToolNode",))),
    Clause: (dict(scope="entry", quantifier="exists", predicate=_FLAGGED),
             dict(quantifier="forall")),
    AuditRule: (dict(risk_id="ASI06", name="memory_poisoning", entry=_ENTRY, back=_BACK,
                     fwd=_FWD, conditions=_CLAUSES),
                dict(name="other")),
    EvidenceItem: (dict(element_id="n", clause_index=1, attributes={"trust_level": "untrusted"}),
                   dict(clause_index=2)),
    Finding: (dict(risk_id="ASI06", risk_name="memory_poisoning", entry="n", back_paths=[],
                   fwd_paths=[_PATH], evidence=[EvidenceItem("n", 0)], trace_id="t",
                   agents_involved=["a"], phase_label="runtime", back_scope=(),
                   fwd_scope=("n1", "e1", "n2")),
              dict(fwd_paths=[])),
    AuditReport: (dict(graph_digest="abc", findings=[], stats={"ASI06": {"findings": 0}}),
                  dict(graph_digest="def")),
    ExpectedFinding: (dict(risk_id="ASI06", entry="n", phase="runtime", back_reaches="x",
                           fwd_reaches="y"),
                      dict(fwd_reaches=None)),
    Fixture: (dict(scenario_id="s", seed=3, manifest=CapabilityManifest([_AGENT]),
                   events=[_EVENT], expected=(ExpectedFinding("ASI06", "n", "runtime"),)),
              dict(seed=4)),
    PathSpec: (dict(direction=FORWARD, allowed_edge_kinds=frozenset({EdgeKind.WRITES_TO}),
                    allowed_node_kinds=frozenset({NodeKind.LONG_TERM_MEMORY}), terminal=_FLAGGED,
                    max_depth=4, cross_agent=True),
               dict(max_depth=5)),
    AuditPath: (dict(direction=FORWARD, elements=("n1", "e1", "n2"), count=2),
                dict(count=1)),
}
_FROZEN = {Violation, DangerPattern, ExpectedFinding, AuditPath}


def _fields(cls) -> list:
    return [name for name in cls.__slots__ if not name.startswith("_")]


def _unplaced(text: str) -> str:
    return re.sub(r" at 0x[0-9a-f]+", "", text)


def test_the_records_are_every_record_class_of_the_package():
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("agentbom.") and cls not in (Record, FrozenRecord):
            found.add(cls)
    assert found == set(_RECORDS)
    assert {cls for cls in found if issubclass(cls, FrozenRecord)} == _FROZEN


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    values, changed = _RECORDS[cls]
    assert list(values) == _fields(cls)
    record = cls(**values)
    assert [getattr(record, name) for name in values] == list(values.values())
    assert cls(*values.values()) == record

    # defaults: a FRESH one is a new empty container per instance, and an
    # explicit None is kept
    parameters = inspect.signature(cls).parameters
    required = {name: values[name] for name, p in parameters.items() if p.default is p.empty}
    first, second = cls(**required), cls(**required)
    for name, p in parameters.items():
        if p.default is FRESH:
            assert getattr(first, name) in ([], {})
            assert getattr(first, name) is not getattr(second, name)
            assert getattr(cls(**required, **{name: None}), name) is None
        elif p.default is not p.empty:
            assert getattr(first, name) is p.default

    # equality and repr
    other = cls(**{**values, **changed})
    assert record == cls(**values) and not record != cls(**values)
    assert record != other and not record == other
    assert record != tuple(values.values()) and record != values
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")")
    assert copy.copy(record) == record
    # predicates compare by identity, so deep copies compare by repr
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and _unplaced(repr(clone)) == _unplaced(repr(record))

    if cls in _FROZEN:
        for name in values:
            with pytest.raises(AttributeError):
                setattr(record, name, changed.get(name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert hash(record) == hash(cls(**values))
        assert len({record, cls(**values), other}) == 2
        assert [getattr(record, name) for name in values] == list(values.values())
    else:
        with pytest.raises(TypeError):
            hash(record)
        for name, value in changed.items():
            setattr(record, name, value)
        assert record == other
    with pytest.raises(AttributeError):
        record.not_a_field = 1

