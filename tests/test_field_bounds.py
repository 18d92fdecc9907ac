"""Every field of every input document's field table, given a 1 MB string,
an object with a 1 MB key or an array 900 levels deep, ends the CLI in exit
code 2 and one stderr line of at most 1,024 bytes.

Each case writes the value into one field of one object in a valid input,
in that object's own format: manifest, trace, matcher pack (all through
``build``), graph or rule pack (through ``audit``). A seeded generator picks
the object where a format holds several. Every run writes its output to a
directory that does not exist, so a value the program accepts still ends
in one error line, at the very end; a value whose JSON type the field's
table rejects must be reported before that.
"""

from __future__ import annotations

import json
import random

import pytest

from agentbom import schema, scenarios
from agentbom.cli import main
from agentbom.matchers import default_matcher
from agentbom.rules import builtin_rules, dump_rules

_SEED = 0
_MARK = "\x00value\x00"
_MARK_TEXT = json.dumps(_MARK)

# value name -> (JSON text, its JSON type, the type of its items)
_VALUES = {
    "1mb-string": (json.dumps("x" * 2**20), str, None),
    "1mb-key": ("{%s: 1}" % json.dumps("k" * 2**20), dict, None),
    "900-deep-array": ("[" * 900 + "]" * 900, list, list),
}

# a valid predicate of each op
_PREDICATES = {
    "attr": {"op": "attr", "key": "content", "cmp": "contains", "value": "x"},
    "flags": {"op": "flags", "any_of": ["privilege_claim"]},
    "kind": {"op": "kind", "any_of": ["ToolNode"]},
    "layer": {"op": "layer", "layer": "runtime"},
    "not": {"op": "not", "arg": {"op": "flags"}},
    "and": {"op": "and", "args": [{"op": "flags"}]},
    "or": {"op": "or", "args": [{"op": "flags"}]},
    "neighbor": {"op": "neighbor", "direction": "in", "edge_kinds": ["invokes"],
                 "node": {"op": "flags"}, "edge": {"op": "flags"}},
}


def _agent(docs, rng):
    return rng.choice(docs["manifest"]["agents"])


def _listed(key, default):
    """A carrier of an entry of an agent's ``key`` list, made if the list is empty."""
    def carrier(docs, rng):
        entries = _agent(docs, rng).setdefault(key, [])
        if not entries:
            entries.append(dict(default))
        return rng.choice(entries)
    return carrier


def _provenance(docs, rng):
    agent = _agent(docs, rng)
    entries = agent.get("tools", []) + agent.get("skills", [])
    if not entries:
        agent["tools"] = entries = [{"tool_name": "t"}]
    return rng.choice(entries).setdefault("provenance", {"source": "registry://t"})


def _rule(docs, rng):
    return rng.choice(docs["rules"]["rules"])


def _predicate(op):
    def carrier(docs, rng):
        predicate = _rule(docs, rng)["entry"]["predicate"] = json.loads(
            json.dumps(_PREDICATES[op]))
        return predicate
    return carrier


def _entry_attr(docs, rng):
    predicate = _rule(docs, rng)["entry"]["predicate"] = dict(
        _PREDICATES["attr"], value={"entry_attr": "content"})
    return predicate["value"]


# field table -> (the input format its objects sit in, the carrier: a
# function of the input documents and the generator giving one such object)
_CARRIERS = {
    schema.MANIFEST: ("manifest", lambda docs, rng: docs["manifest"]),
    schema.MANIFEST_AGENT: ("manifest", _agent),
    schema.MANIFEST_PROMPT: ("manifest", lambda docs, rng: _agent(docs, rng).setdefault(
        "system_prompt", {"content": "p"})),
    schema.MANIFEST_MODEL: ("manifest", lambda docs, rng: _agent(docs, rng).setdefault(
        "model", {"name": "m"})),
    schema.MANIFEST_TOOL: ("manifest", _listed("tools", {"tool_name": "t"})),
    schema.MANIFEST_SKILL: ("manifest", _listed("skills", {"skill_name": "s"})),
    schema.MANIFEST_PROVENANCE: ("manifest", _provenance),
    schema.MANIFEST_MEMORY: ("manifest", _listed("memory_stores", {"store_id": "notes"})),
    schema.MANIFEST_CODE: ("manifest", _listed("code_dependencies", {"name": "lib"})),
    schema.TRACE_EVENT: ("trace", lambda docs, rng: rng.choice(docs["trace"])),
    schema.GRAPH: ("graph", lambda docs, rng: docs["graph"]),
    schema.GRAPH_AGENT: ("graph", lambda docs, rng: rng.choice(docs["graph"]["agents"])),
    schema.GRAPH_NODE: ("graph", lambda docs, rng: rng.choice(docs["graph"]["nodes"])),
    schema.GRAPH_EDGE: ("graph", lambda docs, rng: rng.choice(docs["graph"]["edges"])),
    schema.RULE_PACK: ("rules", lambda docs, rng: docs["rules"]),
    schema.RULE: ("rules", _rule),
    schema.RULE_ENTRY: ("rules", lambda docs, rng: _rule(docs, rng)["entry"]),
    schema.RULE_SPEC: ("rules", lambda docs, rng: _rule(docs, rng)[rng.choice(("back", "fwd"))]),
    schema.RULE_CLAUSE: ("rules", lambda docs, rng: rng.choice(_rule(docs, rng)["conditions"])),
    **{table: ("rules", _predicate(op)) for op, table in schema.PREDICATE_OPS.items()},
    schema.ENTRY_ATTR: ("rules", _entry_attr),
    schema.MATCHER_PACK: ("matchers", lambda docs, rng: docs["matchers"]),
    schema.MATCHER_PATTERN: ("matchers",
                             lambda docs, rng: rng.choice(docs["matchers"]["patterns"])),
}

_TABLE_NAMES = {
    **{table: name for name, table in vars(schema).items() if isinstance(table, schema.FieldTable)},
    **{table: f"PREDICATE_OPS[{op}]" for op, table in schema.PREDICATE_OPS.items()},
}

_CASES = [(table, key, value) for table in _CARRIERS for key in table.fields for value in _VALUES]


def test_every_field_table_has_a_carrier():
    assert set(_CARRIERS) == set(_TABLE_NAMES)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The valid inputs every case starts from: a fixture whose manifest
    declares prompts, models, tools, skills, provenance and code, its graph,
    the builtin rule pack and the default matcher pack."""
    fixture = scenarios.generate("supply_chain_code_exec", 0)
    paths = fixture.write(tmp_path_factory.mktemp("fx"))
    return json.dumps({
        "manifest": json.loads(paths["manifest"].read_text()),
        "trace": [json.loads(line) for line in paths["trace"].read_text().splitlines()],
        "graph": json.loads(fixture.build().to_json()),
        "rules": json.loads(dump_rules(builtin_rules())),
        "matchers": default_matcher().to_dict(),
    })


def _rejected(table, key, value_type, items) -> bool:
    """Whether the table's JSON types alone reject the value under key."""
    json_type = table.fields[key][0]
    return value_type not in table.accepts[key] or bool(json_type.items and items
                                                        and items is not json_type.items)


@pytest.mark.parametrize("table, key, value", _CASES, ids=[
    f"{_TABLE_NAMES[table]}-{key}-{value}" for table, key, value in _CASES])
def test_a_huge_or_deep_value_in_any_field_is_one_short_error_line(
        tmp_path, capsys, documents, table, key, value):
    docs = json.loads(documents)
    form, carrier = _CARRIERS[table]
    carrier(docs, random.Random(f"{_SEED}:{_TABLE_NAMES[table]}:{key}:{value}"))[key] = _MARK
    text, value_type, items = _VALUES[value]
    texts = {name: json.dumps(doc) for name, doc in docs.items() if name != "trace"}
    texts["trace"] = "".join(json.dumps(event) + "\n" for event in docs["trace"])
    assert texts[form].count(_MARK_TEXT) == 1
    texts[form] = texts[form].replace(_MARK_TEXT, text)
    for name, doc_text in texts.items():
        (tmp_path / name).write_text(doc_text)
    unwritable = str(tmp_path / "missing" / "out")
    if form in ("graph", "rules"):
        argv = ["audit", "--graph", str(tmp_path / "graph"), "--rules", str(tmp_path / "rules")]
    else:
        argv = ["build", "--manifest", str(tmp_path / "manifest"),
                "--trace", str(tmp_path / "trace"), "--matchers", str(tmp_path / "matchers")]
    assert main(argv + ["--out", unwritable]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) <= 1024
    if _rejected(table, key, value_type, items):
        assert unwritable not in err
