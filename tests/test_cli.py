"""End-to-end runs of the command-line entry point via main(argv)."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path

import pytest

from agentbom import cli, scenarios
from agentbom.cli import main
from agentbom.graph import parse_instant
from agentbom.ingestion import assemble, parse_manifest_json, parse_trace_jsonl
from agentbom.matchers import default_matcher
from agentbom.rules import builtin_rules, dump_rules

import cross_python


@pytest.fixture()
def workdir(tmp_path):
    """A scenario's inputs plus a built graph, on disk."""
    rc = main(["scenario", "--id", "memory_poisoning_tool_misuse",
               "--out", str(tmp_path / "fx")])
    assert rc == 0
    graph_path = tmp_path / "graph.json"
    rc = main(["build",
               "--manifest", str(tmp_path / "fx" / "manifest.json"),
               "--trace", str(tmp_path / "fx" / "trace.jsonl"),
               "--out", str(graph_path)])
    assert rc == 0
    return tmp_path


def test_scenario_prints_the_three_paths(tmp_path, capsys):
    assert main(["scenario", "--id", "benign_baseline",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit("/", 1)[-1] for line in lines] == [
        "manifest.json", "trace.jsonl", "expected_report.json",
    ]


def test_build_writes_a_loadable_graph(workdir):
    doc = json.loads((workdir / "graph.json").read_text())
    assert {"agents", "nodes", "edges"} <= set(doc)
    assert any(n["node_id"] == "tool.exec" for n in doc["nodes"])


def test_build_to_stdout_matches_the_file(workdir, capsys):
    assert main(["build",
                 "--manifest", str(workdir / "fx" / "manifest.json"),
                 "--trace", str(workdir / "fx" / "trace.jsonl")]) == 0
    assert capsys.readouterr().out == (workdir / "graph.json").read_text()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
def test_build_pauses_the_collector_and_restores_it(workdir, capsys, monkeypatch,
                                                    enabled, fails):
    """build keeps the cycle collector paused from reading the manifest to
    writing the graph, puts back the state it found, whether or not the
    build fails, and writes the bytes the library builds."""
    fx = workdir / "fx"
    trace = fx / "trace.jsonl"
    if fails:
        trace = workdir / "bad.jsonl"
        trace.write_text("{broken\n")
    seen = []

    def recording(name, original):
        def stage(*args):
            seen.append((name, gc.isenabled()))
            return original(*args)
        return stage

    for name in ("parse_manifest_json", "_emit"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = main(["build", "--manifest", str(fx / "manifest.json"),
                   "--trace", str(trace)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    out = capsys.readouterr().out
    if fails:
        assert rc == 2 and seen == [("parse_manifest_json", False)]
        return
    assert rc == 0
    assert seen == [("parse_manifest_json", False), ("_emit", False)]
    built = assemble(parse_manifest_json((fx / "manifest.json").read_text()),
                     parse_trace_jsonl(trace.read_text()))
    assert out == built.to_json() == (workdir / "graph.json").read_text()


def test_build_frees_what_it_built_before_the_collector_resumes(tmp_path, monkeypatch):
    """The manifest, events and graph die inside build's pause, so no
    collection starts once the collector resumes: it would walk the whole
    build to find no cycle. A small input would leave too few objects behind
    for a collection to start either way, so this one has over 300 events."""
    base = scenarios.generate("memory_poisoning_tool_misuse", 0)
    docs = []
    for i in range(20):
        for event in base.events:
            moment = parse_instant(event.timestamp) + timedelta(days=i)
            docs.append({**event.to_dict(), "event_id": f"r{i}.{event.event_id}",
                         "trace_id": f"r{i}.{event.trace_id}",
                         "timestamp": moment.strftime("%Y-%m-%dT%H:%M:%SZ"),
                         "refs": [f"r{i}.{ref}" for ref in event.refs]})
    assert len(docs) >= 300
    (tmp_path / "manifest.json").write_text(base.manifest.to_json())
    (tmp_path / "trace.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
    argv = ["build", "--manifest", str(tmp_path / "manifest.json"),
            "--trace", str(tmp_path / "trace.jsonl"), "--out", str(tmp_path / "graph.json")]
    # a first build fills what is meant to outlive it: the default matcher
    # and the compiled patterns
    assert main(argv) == 0
    log = []

    @contextmanager
    def recording_pause():
        gc.disable()
        try:
            yield
        finally:
            log.append("resumed")
            gc.enable()

    def on_collection(phase, info):
        if phase == "start":
            log.append("collection")

    monkeypatch.setattr(cli, "_collector_paused", recording_pause)
    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        rc = main(argv)
    finally:
        gc.callbacks.remove(on_collection)
        (gc.enable if was else gc.disable)()
    assert rc == 0
    assert log == ["resumed"]


def test_audit_report_and_summary(workdir, capsys):
    report_path = workdir / "report.json"
    assert main(["audit", "--graph", str(workdir / "graph.json"),
                 "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "'ASI02' 'tool_misuse': entry 'tool.exec'" in out
    assert "'ASI06' 'memory_poisoning': entry 'act.assistant.06'" in out
    assert "2 finding(s)" in out
    report = json.loads(report_path.read_text())
    assert sorted({f["risk_id"] for f in report["findings"]}) == [
        "ASI02", "ASI06",
    ]


def test_audit_without_out_prints_only_json(workdir, capsys):
    assert main(["audit", "--graph", str(workdir / "graph.json")]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # pure report, no summary chatter mixed in


def test_fail_on_findings_flag(workdir, tmp_path):
    assert main(["audit", "--graph", str(workdir / "graph.json"),
                 "--fail-on-findings"]) == 1
    # the benign run exits clean under the same flag
    assert main(["scenario", "--id", "benign_baseline",
                 "--out", str(tmp_path / "ok")]) == 0
    assert main(["build",
                 "--manifest", str(tmp_path / "ok" / "manifest.json"),
                 "--trace", str(tmp_path / "ok" / "trace.jsonl"),
                 "--out", str(tmp_path / "ok.json")]) == 0
    assert main(["audit", "--graph", str(tmp_path / "ok.json"),
                 "--fail-on-findings", "--out", str(tmp_path / "r.json")]) == 0


def test_audit_accepts_a_custom_rule_pack(workdir, capsys):
    pack_path = workdir / "pack.json"
    pack_path.write_text(dump_rules(builtin_rules()[:2]))
    assert main(["audit", "--graph", str(workdir / "graph.json"),
                 "--rules", str(pack_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["stats"]) == {"ASI01", "ASI02"}


def test_custom_matcher_pack_via_flag(workdir):
    quiet = workdir / "quiet.json"
    doc = default_matcher().to_dict()
    doc["patterns"] = [p for p in doc["patterns"]
                       if p["flag"] != "destructive_command"]
    quiet.write_text(json.dumps(doc))
    out_path = workdir / "quiet_graph.json"

    assert main(["build",
                 "--manifest", str(workdir / "fx" / "manifest.json"),
                 "--trace", str(workdir / "fx" / "trace.jsonl"),
                 "--matchers", str(quiet),
                 "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "destructive_command" not in text


def test_export_whole_graph_and_single_finding(workdir, capsys):
    assert main(["export", "--graph", str(workdir / "graph.json")]) == 0
    whole = capsys.readouterr().out
    assert whole.startswith("digraph agentbom {")
    assert main(["export", "--graph", str(workdir / "graph.json"),
                 "--finding", "0"]) == 0
    single = capsys.readouterr().out
    assert single.startswith("digraph finding_ASI02 {")
    assert len(single) < len(whole)


def test_export_finding_index_out_of_range(workdir, capsys):
    assert main(["export", "--graph", str(workdir / "graph.json"),
                 "--finding", "99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "out of range" in err


def test_validate_reports_a_healthy_graph(workdir, capsys):
    assert main(["validate", "--graph", str(workdir / "graph.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph valid: ")
    assert "static=" in out and "runtime=" in out


def test_validate_lists_violations_and_exits_2(workdir, capsys):
    doc = json.loads((workdir / "graph.json").read_text())
    doc["edges"][0]["target"] = "no.such.node"
    broken = workdir / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "--graph", str(broken)]) == 2
    captured = capsys.readouterr()
    assert "dangling_endpoint" in captured.out
    assert "error: graph failed validation" in captured.err


def _with_nodes(graph_text: str, *nodes) -> str:
    doc = json.loads(graph_text)
    doc["nodes"] += nodes
    return json.dumps(doc)


def test_a_graph_with_20000_violations_is_one_short_error_line(tmp_path, capsys, graphs):
    """The error line quotes the first three violations and counts the rest."""
    graph = tmp_path / "graph.json"
    graph.write_text(_with_nodes(graphs["benign_baseline"].to_json(), *(
        {"node_id": f"tool.extra.{i:05d}", "kind": "ToolNode", "attributes": {"colour": "red"}}
        for i in range(20_000))))
    for command in ("audit", "export"):
        assert main([command, "--graph", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: graph failed validation: "
            + "; ".join(f"'tool.extra.0000{i}' carries unregistered key 'colour'"
                        for i in range(3))
            + "; and 19997 more\n")


def test_validate_prints_one_quoted_line_per_violation(tmp_path, capsys):
    """An id is quoted, so one holding a line feed stays on its violation's
    line, and a 1 MB one is cut short."""
    graph = tmp_path / "graph.json"
    huge = "h" * 2**20
    graph.write_text(_with_nodes(json.dumps(_GRAPH), *(
        {"node_id": node_id, "kind": "ToolNode", "attributes": {"colour": "red", "shade": "x"}}
        for node_id in ("evil\nid", huge))))
    assert main(["validate", "--graph", str(graph)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[:2] == ["attribute_schema: 'evil\\nid': 'evil\\nid' carries unregistered key "
                         f"{key!r}" for key in ("colour", "shade")]
    assert len(lines) == 4 and all(len(line) < 300 for line in lines[2:])
    assert all(line.startswith("attribute_schema: 'hhhh") for line in lines[2:])
    assert captured.err == "error: graph failed validation with 4 violation(s)\n"


def test_missing_input_is_a_single_line_error(tmp_path, capsys):
    assert main(["build", "--manifest", str(tmp_path / "nope.json"),
                 "--trace", str(tmp_path / "nope.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_unparsable_manifest_is_a_single_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    assert main(["build", "--manifest", str(bad),
                 "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_unparsable_matcher_pack_is_a_single_line_error(workdir, tmp_path, capsys):
    bad = tmp_path / "matchers.json"
    bad.write_text("{bad")
    fx = workdir / "fx"
    assert main(["build", "--manifest", str(fx / "manifest.json"),
                 "--trace", str(fx / "trace.jsonl"), "--matchers", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matcher pack is not valid JSON")
    assert err.count("\n") == 1


def test_outputs_are_byte_deterministic(workdir, tmp_path):
    for args, name in [
        (["scenario", "--id", "ecosystem_hijacking", "--seed", "4"],
         "fx2"),
    ]:
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        for child in sorted(first.iterdir()):
            assert child.read_bytes() == (second / child.name).read_bytes()

    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for target in (g1, g2):
        assert main(["build",
                     "--manifest", str(tmp_path / "a" / "manifest.json"),
                     "--trace", str(tmp_path / "a" / "trace.jsonl"),
                     "--out", str(target)]) == 0
    assert g1.read_bytes() == g2.read_bytes()

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for target in (r1, r2):
        assert main(["audit", "--graph", str(g1),
                     "--out", str(target)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


_SRC = Path(__file__).resolve().parent.parent / "src"


def test_module_is_runnable_as_a_script(workdir):
    # pytest's own pythonpath setting reaches only its process, so the child
    # is given this checkout's sources ahead of whatever PYTHONPATH holds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "agentbom.cli", "validate",
         "--graph", str(workdir / "graph.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("graph valid: ")


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """Every CLI run pays for what importing the package and its CLI loads;
    dataclasses (which pulls in inspect) and generating its methods would
    more than double that. Nor does it load hashlib and OpenSSL's _hashlib,
    which only a digest needs: build, scenario and export never hash."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import agentbom, agentbom.cli; "
             "agentbom.default_matcher(); agentbom.builtin_rules(); print(agentbom.__file__); "
             "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, str(_SRC)],
                          capture_output=True, text=True, check=True)
    where, loaded = proc.stdout.splitlines()
    assert Path(where).parent == _SRC / "agentbom"
    assert loaded == "[]"


_EVENT = {"event_id": "x1", "trace_id": "t1", "agent_id": "a",
          "timestamp": "2026-03-01T10:00:00Z", "event_type": "external_input"}
_GRAPH = {"agents": [{"agent_id": "a"}],
          "nodes": [{"node_id": "agent.a", "kind": "AgentNode", "attributes": {}}],
          "edges": []}


def _message(event_id, event_type, minute, **attrs):
    return dict(_EVENT, event_id=event_id, event_type=event_type, content="hi",
                timestamp=f"2026-03-01T10:0{minute}:00Z", attrs=attrs)


# messages an agent addresses to itself must not end in a propagation edge
# between two elements of that agent without a shared-object marker
@pytest.mark.parametrize("events", [
    [_message("s1", "message_sent", 0, target_agent="a")],
    [_message("r1", "message_received", 0, source_agent="a")],
    [_message("s1", "message_sent", 0, message_id="m1"),
     _message("r1", "message_received", 1, message_id="m1")],
], ids=["send-to-self", "receive-from-self", "message-id-within-one-agent"])
def test_self_addressed_messages_build_a_valid_graph(tmp_path, capsys, events):
    manifest, trace = tmp_path / "manifest.json", tmp_path / "trace.jsonl"
    manifest.write_text(json.dumps({"agents": [{"agent_id": "a"}, {"agent_id": "b"}]}))
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    graph = tmp_path / "graph.json"
    assert main(["build", "--manifest", str(manifest), "--trace", str(trace),
                 "--out", str(graph)]) == 0
    assert main(["validate", "--graph", str(graph)]) == 0
    assert capsys.readouterr().out.startswith("graph valid: ")


def test_a_line_separator_inside_content_builds(tmp_path, capsys):
    # JSON allows U+2028 raw inside a string; the trace line must not break there
    manifest, trace = tmp_path / "manifest.json", tmp_path / "trace.jsonl"
    manifest.write_text(json.dumps({"agents": [{"agent_id": "a"}]}))
    event = dict(_EVENT, content="one\u2028two")
    trace.write_text(json.dumps(event, ensure_ascii=False) + "\n", encoding="utf-8")
    graph = tmp_path / "graph.json"
    assert main(["build", "--manifest", str(manifest), "--trace", str(trace),
                 "--out", str(graph)]) == 0
    assert json.loads(graph.read_text())["nodes"][-1]["attributes"]["content"] == "one\u2028two"
    assert main(["validate", "--graph", str(graph)]) == 0
    assert capsys.readouterr().out.startswith("graph valid: ")


def test_a_lone_carriage_return_in_a_trace_line_is_whitespace(workdir):
    # JSON whitespace between two tokens, where universal newlines would
    # break the line; json.dumps writes '", "' only between tokens
    fx = workdir / "fx"
    text = (fx / "trace.jsonl").read_bytes()
    lone_cr = workdir / "lone_cr.jsonl"
    lone_cr.write_bytes(text.replace(b', "', b',\r"'))
    assert text.count(b"\n") == lone_cr.read_bytes().count(b"\n")
    assert lone_cr.read_bytes().count(b"\r") > text.count(b"\n")
    graph = workdir / "lone_cr.json"
    assert main(["build", "--manifest", str(fx / "manifest.json"), "--trace", str(lone_cr),
                 "--out", str(graph)]) == 0
    assert graph.read_bytes() == (workdir / "graph.json").read_bytes()


# a flagged agent node is an ASI10 entry, so the audit asks for its id
_UNNAMED_FLAGGED_AGENT = {"node_id": "", "kind": "AgentNode",
                          "attributes": {"danger_flags": ["privilege_claim"]}}


def _build_case(agent=None, **event_fields):
    manifest = {"agents": [dict({"agent_id": "a"}, **(agent or {}))]}
    return "build", manifest, dict(_EVENT, **event_fields)


def _graph_case(command, doc):
    return command, doc, None


def _matchers_case(**pattern_fields):
    pattern = dict({"flag": "f", "pattern": "x", "applies_to": ["content"]},
                   **pattern_fields)
    return "matchers", {"patterns": [pattern]}, None


_RULE = json.loads(dump_rules(builtin_rules()[:1]))["rules"][0]


def _rules_case(**rule_fields):
    return "rules", [dict(_RULE, **rule_fields)], None


def _predicate_case(predicate):
    return _rules_case(entry=dict(_RULE["entry"], predicate=predicate))


# a key no field table declares, by the case that carries it
_UNKNOWN_KEY = {"manifest-tols-misspelled": "tols", "trace-contnet-misspelled": "contnet",
                "graph-atributes-misspelled": "atributes",
                "rule-max-dept-misspelled": "max_dept", "matcher-entry-extra-key": "flags"}

# an unknown kind in a rule pack is the pack's error, naming the rule or
# the predicate, and the kind
_UNKNOWN_KIND = {
    "rule-entry-kind-unknown": "rule 'ASI01': unknown node kind 'GadgetNode'",
    "rule-edge-kind-unknown": "rule 'ASI01': unknown edge kind 'teleports'",
    "kind-predicate-kind-unknown": "kind predicate: unknown node or edge kind 'GadgetNode'",
    "neighbor-predicate-kind-unknown": "neighbor predicate: unknown edge kind 'teleports'",
}

# a graph file that loads but fails validation was read, not assembled
_LOADED_GRAPH_FAILS_VALIDATION = ("audit-empty-node-id", "export-empty-node-id")


@pytest.mark.parametrize("command, doc, event", [
    _graph_case("audit", dict(_GRAPH, nodes=[{"node_id": "agent.a"}])),
    _graph_case("validate", dict(_GRAPH, nodes=[{"node_id": "agent.a"}])),
    _graph_case("export", dict(_GRAPH, nodes=[{"node_id": "agent.a"}])),
    _graph_case("audit", [_GRAPH]),
    _graph_case("validate", [_GRAPH]),
    _graph_case("export", [_GRAPH]),
    _graph_case("validate", {"agents": [], "nodes": []}),
    _graph_case("validate", dict(_GRAPH, nodes=[dict(_GRAPH["nodes"][0],
                                                     timestamp=5)])),
    _graph_case("validate", dict(_GRAPH, nodes=[_UNNAMED_FLAGGED_AGENT])),
    _graph_case("validate", dict(_GRAPH, agents=[{"agent_id": "a"}] * 2)),
    _graph_case("audit", dict(_GRAPH, nodes=[_UNNAMED_FLAGGED_AGENT])),
    _graph_case("export", dict(_GRAPH, nodes=[_UNNAMED_FLAGGED_AGENT])),
    _build_case(refs=5),
    _build_case(attrs=5),
    _build_case(agent={"tools": ["exec"]}),
    _build_case(agent={"skills": [5]}),
    _build_case(agent={"memory_stores": ["notes"]}),
    _build_case(agent={"code_dependencies": [None]}),
    _build_case(agent={"model": 5}),
    _build_case(agent={"tools": [{"tool_name": "t", "permission_scope": "fs"}]}),
    _build_case(agent={"role": 5}),
    _build_case(agent={"code_dependencies": [{"name": "lib", "version": 1.0}]}),
    _build_case(attrs={"danger_flags": "privilege_claim"}),
    _build_case(attrs={"basis": 5}),
    _build_case(event_type=["external_input"]),
    _build_case(timestamp="garbage"),
    _build_case(timestamp=20260301),
    _build_case(event_id=7),
    _build_case(content=5),
    _build_case(agent={"agent_id": 5}),
    _build_case(agent={"tools": [{"tool_name": ["x"]}]}),
    _build_case(agent={"code_dependencies": [{"name": 5}]}),
    ("matchers", {"patterns": 5}, None),
    _matchers_case(applies_to="content"),
    _matchers_case(applies_to=5),
    _matchers_case(flag=["x"]),
    _matchers_case(pattern=5),
    ("rules", [5], None),
    _rules_case(back=5),
    _rules_case(conditions=5),
    _rules_case(risk_id=1),
    ("rules", [_RULE, _RULE], None),
    _rules_case(back=dict(_RULE["back"], cross_agent="false")),
    _rules_case(back=dict(_RULE["back"], max_depth=True)),
    _rules_case(fwd=dict(_RULE["fwd"], max_depth=0)),
    _rules_case(fwd=dict(_RULE["fwd"], direction="sideways")),
    _predicate_case({"op": "and", "args": 5}),
    _predicate_case({"op": "neighbor", "direction": "in", "edge_kinds": 5}),
    _predicate_case({"op": "flags", "any_of": "privilege_claim"}),
    _predicate_case({"op": "attr", "key": "tool_name", "cmp": "intersects",
                     "value": [[1]]}),
    _predicate_case({"op": "attr", "key": "content", "cmp": "contains",
                     "value": [{"entry_attr": "content"}]}),
    _build_case(agent={"tols": [{"tool_name": "exec"}]}),
    _build_case(contnet="rm -rf /"),
    _graph_case("validate", dict(_GRAPH, nodes=[{"node_id": "agent.a", "kind": "AgentNode",
                                                 "atributes": {}}])),
    _rules_case(fwd=dict(_RULE["fwd"], max_dept=3)),
    _matchers_case(flags=["f"]),
    _rules_case(entry=dict(_RULE["entry"], kinds=["GadgetNode"])),
    _rules_case(back=dict(_RULE["back"], edge_kinds=["teleports"])),
    _predicate_case({"op": "kind", "any_of": ["GadgetNode"]}),
    _predicate_case({"op": "neighbor", "direction": "in", "edge_kinds": ["teleports"]}),
], ids=[
    "audit-node-without-kind", "validate-node-without-kind",
    "export-node-without-kind", "audit-graph-is-a-list", "validate-graph-is-a-list",
    "export-graph-is-a-list", "graph-without-edges", "node-timestamp-not-a-string",
    "validate-empty-node-id", "validate-duplicate-agent-id", "audit-empty-node-id",
    "export-empty-node-id",
    "refs-not-a-list", "attrs-not-an-object", "tool-not-an-object",
    "skill-not-an-object", "memory-store-not-an-object", "code-dep-not-an-object",
    "model-not-an-object", "permission-scope-not-a-list",
    "role-a-number", "code-version-a-number",
    "danger-flags-not-a-list", "basis-not-a-list", "event-type-a-list",
    "timestamp-garbage", "timestamp-a-number", "event-id-a-number",
    "content-a-number", "agent-id-a-number", "tool-name-a-list", "code-name-a-number",
    "matcher-patterns-not-a-list", "matcher-applies-to-a-string",
    "matcher-applies-to-a-number", "matcher-flag-a-list", "matcher-pattern-a-number",
    "rule-not-an-object", "rule-back-not-an-object",
    "rule-conditions-not-a-list", "rule-risk-id-a-number", "rule-risk-id-repeated",
    "rule-cross-agent-a-string",
    "rule-max-depth-a-boolean", "rule-max-depth-zero", "rule-direction-sideways",
    "and-args-not-a-list",
    "neighbor-edge-kinds-not-a-list", "flags-any-of-a-string",
    "attr-value-a-nested-list", "attr-value-a-list-of-maps",
    "manifest-tols-misspelled", "trace-contnet-misspelled", "graph-atributes-misspelled",
    "rule-max-dept-misspelled", "matcher-entry-extra-key",
    "rule-entry-kind-unknown", "rule-edge-kind-unknown", "kind-predicate-kind-unknown",
    "neighbor-predicate-kind-unknown",
])
def test_malformed_input_is_a_single_line_error(tmp_path, capsys, request,
                                                command, doc, event):
    first = tmp_path / "first.json"
    first.write_text(json.dumps(doc))
    if command == "build":
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(event) + "\n")
        argv = ["build", "--manifest", str(first), "--trace", str(trace)]
    elif command == "matchers":
        _, manifest, event = _build_case()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "trace.jsonl").write_text(json.dumps(event) + "\n")
        argv = ["build", "--manifest", str(tmp_path / "manifest.json"),
                "--trace", str(tmp_path / "trace.jsonl"), "--matchers", str(first)]
    elif command == "rules":
        (tmp_path / "graph.json").write_text(json.dumps(_GRAPH))
        argv = ["audit", "--graph", str(tmp_path / "graph.json"), "--rules", str(first)]
    else:
        argv = [command, "--graph", str(first)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    if request.node.callspec.id in _LOADED_GRAPH_FAILS_VALIDATION:
        assert "graph failed validation" in err
        assert "assembled" not in err
    if request.node.callspec.id in _UNKNOWN_KEY:
        assert f"unknown field {_UNKNOWN_KEY[request.node.callspec.id]!r}" in err
    if request.node.callspec.id in _UNKNOWN_KIND:
        assert _UNKNOWN_KIND[request.node.callspec.id] in err


def _nested(depth, opening, closing, inner):
    return opening * depth + inner + closing * depth


def _with(doc, key, text):
    """doc as JSON text, with ``text`` as the value of key."""
    return json.dumps(dict(doc, **{key: "VALUE"})).replace('"VALUE"', text)


# documents that nest a thousand levels deep, beyond what the JSON decoder
# of CPython 3.11 takes, a rule pack it can decode whose predicate nests
# beyond predicates.MAX_DEPTH, and a matcher pack whose pattern nests
# beyond what re.compile takes
_ARRAYS = _nested(1000, "[", "]", "")
# a value far longer than any error line may be
_HUGE = "x" * 2**20


def _lines(*events):
    return "".join(json.dumps(event) + "\n" for event in events)


_NOTS = _nested(1000, '{"op": "not", "arg": ', "}", '{"op": "flags"}')
_ANDS = _nested(450, '{"op": "and", "args": [', "]}", '{"op": "flags"}')


@pytest.mark.parametrize("command, deep", [
    ("rules", '{"rules": [%s]}' % _with(_RULE, "entry", _with(_RULE["entry"], "predicate", _NOTS))),
    ("rules", '{"rules": [%s]}' % _with(_RULE, "entry", _with(_RULE["entry"], "predicate", _ANDS))),
    ("graph", _with(_GRAPH, "nodes", _ARRAYS)),
    ("manifest", '{"agents": %s}' % _ARRAYS),
    ("matchers", '{"patterns": %s}' % _ARRAYS),
    ("matchers", json.dumps({"patterns": [{"flag": "deep", "pattern": _nested(600, "(", ")", "a"),
                                           "applies_to": ["content"]}]})),
    ("trace", _with(_EVENT, "event_id", _ARRAYS) + "\n"),
    ("trace", _nested(900, "[", "]", "") + "\n"),
    ("trace", json.dumps(_HUGE) + "\n"),
    ("trace", _lines(dict(_EVENT, timestamp=_HUGE))),
    ("trace", _lines(dict(_EVENT, refs=[_HUGE]))),
    ("trace", _lines(dict(_EVENT, event_type=_HUGE))),
    ("trace", _lines(dict(_EVENT, event_id=_HUGE, timestamp="soon"))),
    ("trace", _lines(dict(_EVENT, timestamp="2026-03-01T11:00:00Z"), dict(_EVENT, event_id=_HUGE))),
    ("trace", _lines(dict(_EVENT, refs=[_HUGE]), dict(_EVENT, event_id=_HUGE))),
    ("trace", _lines(_EVENT, dict(_EVENT, event_id=_HUGE, trace_id="t2", refs=["x1"]))),
    ("trace", _lines(dict(_EVENT, event_type="tool_invocation", attrs={"tool_name": _HUGE}))),
    ("trace", _lines(dict(_EVENT, event_id=_HUGE, event_type="tool_invocation"))),
    ("trace", _lines(dict(_EVENT, agent_id=_HUGE))),
    ("manifest", json.dumps({"agents": [{"agent_id": _HUGE}, {"agent_id": _HUGE}]})),
    ("manifest", json.dumps({"agents": [{"agent_id": _HUGE, "model": {"nope": 1}}]})),
    ("manifest", json.dumps({"agents": [{"agent_id": "a", "tools": [{"tool_name": _HUGE}] * 2}]})),
    ("manifest", json.dumps({"agents": [
        {"agent_id": "a", "tools": [{"tool_name": _HUGE, "input_schema": "p"}]},
        {"agent_id": "b", "tools": [{"tool_name": _HUGE, "input_schema": "q"}]}]})),
    ("graph", json.dumps(dict(_GRAPH, nodes=[dict(_GRAPH["nodes"][0], kind=_HUGE)]))),
    ("graph", json.dumps(dict(_GRAPH, edges=[{"edge_id": "e", "kind": _HUGE, "source": "agent.a",
                                              "target": "agent.a", "attributes": {}}]))),
    ("rules", '{"rules": [%s]}' % _with(_RULE, "entry", _with(
        _RULE["entry"], "predicate", json.dumps({"args": [{"op": "flags"}], "note": _HUGE})))),
    ("rules", '{"rules": [%s]}' % _with(_RULE, "entry", _with(
        _RULE["entry"], "predicate", json.dumps({"op": _HUGE})))),
], ids=["rule-pack-1000-nots", "rule-pack-450-ands", "graph", "manifest", "matcher-pack",
        "matcher-pattern-600-groups", "trace-line", "trace-line-900-deep-array",
        "trace-line-1mb-string", "trace-1mb-timestamp", "trace-1mb-ref", "trace-1mb-event-type",
        "trace-1mb-event-id-bad-stamp", "trace-1mb-event-id-out-of-order",
        "trace-1mb-ref-to-later-event", "trace-1mb-event-id-ref-across-traces",
        "trace-1mb-tool-name", "trace-1mb-event-id-lacks-tool", "trace-1mb-undeclared-agent",
        "manifest-1mb-agent-twice", "manifest-1mb-agent-bad-model", "manifest-1mb-tool-twice",
        "manifest-1mb-tool-declared-inconsistently", "graph-1mb-node-kind", "graph-1mb-edge-kind",
        "rule-pack-1mb-predicate-document", "rule-pack-1mb-op"])
def test_deeply_nested_input_is_a_single_line_error(tmp_path, capsys, command, deep):
    """Each input format ends in exit code 2 and one short error line, not a
    RecursionError traceback; a huge or deep value, id or name is quoted cut
    short."""
    texts = {"graph": json.dumps(_GRAPH), "manifest": json.dumps({"agents": [{"agent_id": "a"}]}),
             "trace": json.dumps(_EVENT) + "\n", command: deep}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    if command in ("rules", "graph"):
        argv = ["audit", "--graph", str(tmp_path / "graph")]
    else:
        argv = ["build", "--manifest", str(tmp_path / "manifest"),
                "--trace", str(tmp_path / "trace")]
    if command in ("rules", "matchers"):
        argv += [f"--{command}", str(tmp_path / command)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 400


def test_the_cross_python_runner_finds_no_difference_on_one_fixture():
    """tests/cross_python.py on one fixture and one workload at seed 0, with
    this interpreter alone: the freeze-count and shared-context checks
    hold, every step succeeds, and its bytes do not depend on the hash
    seed."""
    lines, reference, runs = cross_python.differences(
        [], ["memory_poisoning_tool_misuse"], [0], [("diamond_chain", 0)])
    assert lines == [] and runs == 1
    assert reference.pop("check freeze-count handoff") == "exit 0 ok"
    assert reference.pop("check shared-context traces") == "exit 0 ok"
    steps = [value for key, value in reference.items() if " file " not in key]
    assert len(steps) == 6 + 5 and all(value.startswith("exit 0 ") for value in steps)
    files = sorted(key for key in reference if " file " in key)
    assert [key.split(" file ")[1] for key in files if key.startswith("memory")] == [
        "finding.dot", "fx/expected_report.json", "fx/manifest.json", "fx/trace.jsonl",
        "graph.dot", "graph.json", "report.json"]
    assert [key for key in files if not key.startswith("memory")] == [
        f"diamond_chain seed 0 file {name}" for name in (
            "finding.dot", "fx/manifest.json", "fx/trace.jsonl", "graph.dot", "graph.json",
            "report.json")]
