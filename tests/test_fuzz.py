"""A seeded mutation fuzzer over every input document the program reads.

Mutations come from the field tables in ``agentbom.schema``: drop a
required field, give a field a value of another JSON type, null a field,
misspell a key. Structural edits ride along: drop, repeat, swap or clear the
items of an array, empty a string, or copy another string of the document
into it. Each mutant is made from a fixture's manifest, trace or graph, the
builtin rule pack or the default matcher pack, and must either load or raise
an ``AgentBomError``; a mutant the tables rule out must be rejected when it
loads. What loads is built and audited, which may fail only with an
``AgentBomError`` before the audit, and never in it; the report's graph
digest and its text must be those of the whole documents they stand for.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib

import pytest

from _oracles import checked_merges
from agentbom import ingestion, scenarios, schema
from agentbom.errors import AgentBomError
from agentbom.graph import AgentBomGraph, dump_json
from agentbom.ingestion import assemble, parse_manifest, parse_trace_jsonl
from agentbom.matchers import DangerMatcher, default_matcher
from agentbom.rules import audit, builtin_rules, dump_rules, load_rules

MUTANTS_PER_DOCUMENT = 60

# the table of a predicate document follows from its op
_PREDICATE = "predicate"

# (table of an object, field) -> the table of the object or objects under it
_CHILD_TABLES = {
    (schema.MANIFEST, "agents"): schema.MANIFEST_AGENT,
    (schema.MANIFEST_AGENT, "system_prompt"): schema.MANIFEST_PROMPT,
    (schema.MANIFEST_AGENT, "model"): schema.MANIFEST_MODEL,
    (schema.MANIFEST_AGENT, "tools"): schema.MANIFEST_TOOL,
    (schema.MANIFEST_AGENT, "skills"): schema.MANIFEST_SKILL,
    (schema.MANIFEST_AGENT, "memory_stores"): schema.MANIFEST_MEMORY,
    (schema.MANIFEST_AGENT, "code_dependencies"): schema.MANIFEST_CODE,
    (schema.MANIFEST_TOOL, "provenance"): schema.MANIFEST_PROVENANCE,
    (schema.MANIFEST_SKILL, "provenance"): schema.MANIFEST_PROVENANCE,
    (schema.GRAPH, "agents"): schema.GRAPH_AGENT,
    (schema.GRAPH, "nodes"): schema.GRAPH_NODE,
    (schema.GRAPH, "edges"): schema.GRAPH_EDGE,
    (schema.RULE_PACK, "rules"): schema.RULE,
    (schema.RULE, "entry"): schema.RULE_ENTRY,
    (schema.RULE, "back"): schema.RULE_SPEC,
    (schema.RULE, "fwd"): schema.RULE_SPEC,
    (schema.RULE, "conditions"): schema.RULE_CLAUSE,
    (schema.RULE_ENTRY, "predicate"): _PREDICATE,
    (schema.RULE_SPEC, "terminal"): _PREDICATE,
    (schema.RULE_CLAUSE, "predicate"): _PREDICATE,
    (schema.MATCHER_PACK, "patterns"): schema.MATCHER_PATTERN,
}
for _table in schema.PREDICATE_OPS.values():
    for _key in ("arg", "args", "node", "edge"):
        if _key in _table.fields:
            _CHILD_TABLES[_table, _key] = _PREDICATE
    if "value" in _table.fields:
        _CHILD_TABLES[_table, "value"] = schema.ENTRY_ATTR

# one value of each JSON type, and arrays whose items are not all strings
_VALUES = ("x", "", 7, -1, 1.5, True, False, None, [], ["x"], [7], ["x", None], {},
           {"x": 1})


def _walk(value, table, objects, arrays):
    """Collect (object, table) for every object under ``value`` that a table
    governs, and every array on the way."""
    if isinstance(value, list):
        arrays.append(value)
        for item in value:
            _walk(item, table, objects, arrays)
        return
    if not isinstance(value, dict):
        return
    if table is _PREDICATE:
        table = schema.PREDICATE_OPS[value["op"]]
    objects.append((value, table))
    for key, child in value.items():
        if (table, key) in _CHILD_TABLES:
            _walk(child, _CHILD_TABLES[table, key], objects, arrays)
        elif isinstance(child, list):
            arrays.append(child)


def _fits(table, key, value) -> bool:
    """Whether ``table`` lets field ``key`` hold ``value``, restated by hand."""
    if key not in table.fields:
        return False
    json_type, presence = table.fields[key]
    if value is None and presence == schema.NULL_AS_ABSENT:
        return True
    return type(value) in json_type.types and (
        json_type.items is None or all(type(item) is json_type.items for item in value))


def _strings(value, out):
    if isinstance(value, str):
        out.append(value)
    elif isinstance(value, list):
        for item in value:
            _strings(item, out)
    elif isinstance(value, dict):
        for item in value.values():
            _strings(item, out)
    return out


def _mutate(rng: random.Random, doc, table) -> tuple:
    """Mutate ``doc`` in place; returns (name of the edit, whether the
    tables rule the mutant out)."""
    objects, arrays = [], []
    _walk(doc, table, objects, arrays)
    obj, table = rng.choice(objects)
    keys = sorted(obj)
    edit = rng.choice(("drop", "retype", "null", "misspell", "array", "empty", "copy"))
    if edit == "drop" and table.required:
        key = rng.choice(sorted(table.required))
        if key in obj:
            del obj[key]
            return edit, True
    if edit == "empty":
        keys = [key for key in keys if isinstance(obj[key], str)]
    if edit in ("retype", "null", "empty", "copy") and keys:
        key = rng.choice(keys)
        if edit == "retype":
            value = rng.choice([v for v in _VALUES if not _fits(table, key, v)] or [None])
        elif edit == "copy":
            value = rng.choice(_strings(doc, []))
        else:
            value = None if edit == "null" else ""
        obj[key] = value
        return edit, not _fits(table, key, value)
    if edit == "misspell" and keys:
        key = rng.choice(keys)
        obj[key[:-1] or key + "_"] = obj.pop(key)
        return edit, True
    arrays = [a for a in arrays if a]
    if not arrays:
        return "none", False
    items = rng.choice(arrays)
    index = rng.randrange(len(items))
    step = rng.choice(("drop", "repeat", "swap", "clear"))
    if step == "drop":
        del items[index]
    elif step == "repeat":
        items.insert(index, json.loads(json.dumps(items[index])))
    elif step == "swap":
        other = rng.randrange(len(items))
        items[index], items[other] = items[other], items[index]
    else:
        items.clear()
    return f"array-{step}", False


# ---------------------------------------------------------------------------
# the documents and what reads them
# ---------------------------------------------------------------------------

_FIXTURES = {sid: scenarios.generate(sid, 0) for sid in scenarios.SCENARIO_IDS}
_GRAPHS = {sid: fx.build() for sid, fx in _FIXTURES.items()}


def _documents():
    """(case id, kind, pristine JSON text, root table, fixture id)."""
    for sid, fx in _FIXTURES.items():
        yield f"manifest-{sid}", "manifest", fx.manifest.to_json(), schema.MANIFEST, sid
        events = json.dumps([e.to_dict() for e in fx.events])
        yield f"trace-{sid}", "trace", events, schema.TRACE_EVENT, sid
        yield f"graph-{sid}", "graph", _GRAPHS[sid].to_json(), schema.GRAPH, sid
    yield "rules-builtin", "rules", dump_rules(builtin_rules()), schema.RULE_PACK, None
    for sid in _FIXTURES:
        yield (f"matchers-default-{sid}", "matchers",
               json.dumps(default_matcher().to_dict()), schema.MATCHER_PACK, sid)


_DOCUMENTS = list(_documents())


def _load(kind, mutant):
    """The mutant read as its command would read it."""
    if kind == "manifest":
        return parse_manifest(mutant)
    if kind == "trace":
        return parse_trace_jsonl("".join(json.dumps(e) + "\n" for e in mutant))
    if kind == "graph":
        return AgentBomGraph.from_json(json.dumps(mutant))
    if kind == "rules":
        return load_rules(json.dumps(mutant))
    return DangerMatcher.from_json(json.dumps(mutant))


def _graphs_to_audit(kind, loaded, sid):
    """The graphs a loaded mutant yields; building one may fail with an
    AgentBomError, which the caller lets through."""
    fx = _FIXTURES.get(sid)
    if kind == "manifest":
        return [assemble(loaded, fx.events)]
    if kind == "trace":
        return [assemble(fx.manifest, loaded)]
    if kind == "matchers":
        return [assemble(fx.manifest, fx.events, loaded)]
    if kind == "graph":
        # a graph file that fails validation is refused before the audit
        return [] if loaded.validate() else [loaded]
    return list(_GRAPHS.values())


@pytest.mark.parametrize("case, kind, text, table, sid", _DOCUMENTS,
                         ids=[d[0] for d in _DOCUMENTS])
def test_mutants_load_or_raise_an_agentbom_error(case, kind, text, table, sid):
    rng = random.Random(zlib.crc32(case.encode()))
    outcomes = {"loaded": 0, "rejected": 0}
    for number in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        edit, ruled_out = _mutate(rng, mutant, table)
        where = f"{case} mutant {number} ({edit})"
        try:
            loaded = _load(kind, mutant)
        except AgentBomError:
            outcomes["rejected"] += 1
            continue
        assert not ruled_out, f"{where} breaks a field table but loads"
        outcomes["loaded"] += 1
        try:
            graphs = _graphs_to_audit(kind, loaded, sid)
        except AgentBomError:
            continue
        for graph in graphs:
            report = audit(graph, loaded if kind == "rules" else None)
            # the batched digest and the report written from its findings
            # give the bytes of their whole documents
            canonical = json.dumps(graph.to_dict(), sort_keys=True, separators=(",", ":"))
            assert report.graph_digest == hashlib.sha256(canonical.encode()).hexdigest(), where
            assert report.to_json() == dump_json(report.to_dict()), where
    # both outcomes occur, so the mutants reach past the loader
    assert outcomes["loaded"] and outcomes["rejected"], outcomes


_BUILT = [d for d in _DOCUMENTS if d[1] in ("manifest", "trace", "matchers")]


@pytest.mark.parametrize("case, kind, text, table, sid", _BUILT, ids=[d[0] for d in _BUILT])
def test_mutants_merge_flags_as_the_oracle_says(monkeypatch, case, kind, text, table, sid):
    """Every flag merge of a mutant's build leaves what the per-pattern
    oracle gives."""
    log = []
    monkeypatch.setattr(ingestion, "_merge_flags", checked_merges(ingestion._merge_flags, log))
    rng = random.Random(zlib.crc32(case.encode()))
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        _mutate(rng, mutant, table)
        try:
            _graphs_to_audit(kind, _load(kind, mutant), sid)
        except AgentBomError:
            continue
    assert log
