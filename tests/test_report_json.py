"""Referee for AuditReport.to_json: the stdlib's indented, key-sorted text
of the report's to_dict() document.

to_json writes each finding, path and evidence item straight from its
fields instead of encoding a to_dict() copy, so every report here, audited
or built by hand to reach one corner of the writer, is compared against
``dump_json(to_dict())`` and ``json.dumps(to_dict(), indent=2,
sort_keys=True)``.
"""

from __future__ import annotations

import json
from types import MappingProxyType

import pytest

from agentbom.graph import dump_json
from agentbom.rules import AuditReport, EvidenceItem, Finding, audit
from agentbom.traversal import AuditPath

# characters a JSON string encoder must escape or keep, ASCII and not
_ODD = '"\\\x00\x1f\x7f\t\n\xe9\u2028\u2029\ufeff\ud800\U0001f600'


def _assert_refereed(report: AuditReport) -> None:
    text = report.to_json()
    assert text == dump_json(report.to_dict())
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def test_every_fixture_report(graphs):
    for graph in graphs.values():
        _assert_refereed(audit(graph))


def test_an_empty_report():
    report = AuditReport("0" * 64, [], {})
    assert report.to_json() == ('{\n  "findings": [],\n  "graph_digest": "' + "0" * 64
                                + '",\n  "stats": {}\n}\n')
    _assert_refereed(report)


def _finding(entry: str, back_paths: list, fwd_paths: list, evidence: list) -> Finding:
    return Finding("ASI06", "memory_poisoning", entry, back_paths, fwd_paths, evidence,
                   trace_id="t" + _ODD, agents_involved=["a1", "agent" + _ODD],
                   phase_label="runtime")


def test_a_hand_built_report():
    back = [AuditPath("backward", ("ext" + _ODD, "e.flows" + _ODD, "ctx.1")),
            AuditPath("backward", ("ext.2", "e.flows.2", "ctx.1"), count=3)]
    fwd = [AuditPath("forward", ("ctx.1",), count=2)]
    evidence = [
        EvidenceItem("ctx.1", 0),
        EvidenceItem("ext" + _ODD, 1, {"content": _ODD, "danger_flags": ["flag_a"]}),
        EvidenceItem("act.1", 2, {"parameters": {"deep": [[1, 2.5, -0.0], {"x": None}],
                                                 "empty": {}, "none": []},
                                  "count": 2**70, "flag": True, "nested": [[[]], [{}]]}),
        EvidenceItem("act.2", 3, MappingProxyType({"tool_name": "t"})),
    ]
    stats = {"ASI06": {"entries": 2, "findings": 2, "paths_explored": 9},
             "ASI01": {"entries": 0, "findings": 0, "paths_explored": 0}}
    report = AuditReport("d" * 64, [
        _finding("ctx.1", back, fwd, evidence),
        _finding("ctx" + _ODD, [], [], []),  # every list empty
        _finding("ctx.3", [AuditPath("backward", ())], [], evidence[:1]),
    ], stats)
    _assert_refereed(report)


def test_fields_that_are_not_strings():
    # what to_dict() holds is written, whatever its type
    finding = _finding("ctx.1", [AuditPath(5, ("a",), count=4)], [],
                       [EvidenceItem(7, 1.5, {"k": [None]})])
    finding.risk_id, finding.trace_id, finding.agents_involved = None, 3, ("a", 2)
    _assert_refereed(AuditReport(None, [finding], {"ASI06": {"entries": 1.0}}))


def test_to_json_builds_no_report_documents(graphs, monkeypatch):
    report = audit(graphs["memory_poisoning_tool_misuse"])
    expected = dump_json(report.to_dict())

    def refused(self):
        raise AssertionError(f"{type(self).__name__}.to_dict called")

    for cls in (AuditReport, Finding, AuditPath, EvidenceItem):
        monkeypatch.setattr(cls, "to_dict", refused)
    assert report.to_json() == expected


@pytest.mark.parametrize("elements", [(1, "e"), ("n", None)], ids=["int", "none"])
def test_a_path_element_that_is_not_an_id_is_refused(elements):
    # a path holds element ids, and only strings are quoted
    report = AuditReport("", [_finding("n", [AuditPath("backward", elements)], [], [])], {})
    with pytest.raises(TypeError):
        report.to_json()
