"""from_json's sliced load against its whole-document path.

from_json decodes text in to_json's layout a slice of each element array at
a time, and any other text, or any text on which that raises, whole. The
referee is from_json with the sliced path declining every text, which is
the whole-document load alone. Both must give the same graph JSON and
validate() answer, or the same error class and message, on the fixtures,
the bench workloads, the fuzzer's graph mutants, a table of layouts and
values nested up to the decoder's depth limit.
"""

from __future__ import annotations

import json
import random
import sys
import zlib
from pathlib import Path

import pytest

from test_fuzz import _DOCUMENTS, MUTANTS_PER_DOCUMENT, _mutate

from agentbom import graph as graph_mod
from agentbom import scenarios, schema
from agentbom.errors import GraphDocumentError
from agentbom.graph import AgentBomGraph, Edge, Node, dump_json
from agentbom.ingestion import assemble, parse_manifest_json, parse_trace_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)

_SLICES = AgentBomGraph._load_slices.__func__


def _outcome(text):
    """The loaded graph's JSON and violations, or the error's class and
    message."""
    try:
        graph = AgentBomGraph.from_json(text)
    except Exception as exc:
        return type(exc), str(exc)
    return graph.to_json(), graph.validate()


def _loads(monkeypatch, text) -> tuple:
    """(from_json's outcome, the whole path's, whether the sliced path
    gave the graph)."""
    sliced = []

    def spy(cls, text):
        graph = _SLICES(cls, text)
        sliced.append(graph is not None)
        return graph

    with monkeypatch.context() as patch:
        patch.setattr(AgentBomGraph, "_load_slices", classmethod(spy))
        outcome = _outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(AgentBomGraph, "_load_slices", classmethod(lambda cls, text: None))
        whole = _outcome(text)
    return outcome, whole, sliced == [True]


def _assert_sliced_as_whole(monkeypatch, text, slice_size=None):
    if slice_size is not None:
        monkeypatch.setattr(graph_mod, "_SLICE", slice_size)
    outcome, whole, sliced = _loads(monkeypatch, text)
    assert outcome == whole
    assert sliced and isinstance(outcome[0], str)


@pytest.mark.parametrize("slice_size", [None, 1], ids=["default-slices", "one-byte-slices"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_fixture_graphs_load_as_the_whole_path(monkeypatch, sid, seed, slice_size):
    text = scenarios.generate(sid, seed).build().to_json()
    _assert_sliced_as_whole(monkeypatch, text, slice_size)


@pytest.mark.parametrize("slice_size", [None, 1], ids=["default-slices", "one-byte-slices"])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_graphs_load_as_the_whole_path(monkeypatch, name, seed, slice_size):
    work = workloads.generate(name, seed)
    graph = assemble(parse_manifest_json(work.manifest_text), parse_trace_jsonl(work.trace_text))
    _assert_sliced_as_whole(monkeypatch, graph.to_json(), slice_size)


_GRAPH_DOCUMENTS = [d for d in _DOCUMENTS if d[1] == "graph"]


@pytest.mark.parametrize("case, kind, text, table, sid", _GRAPH_DOCUMENTS,
                         ids=[d[0] for d in _GRAPH_DOCUMENTS])
def test_graph_mutants_load_as_the_whole_path(monkeypatch, case, kind, text, table, sid):
    # the mutants test_fuzz makes: the same seed, the same draws; each as the
    # fuzzer writes it and in to_json's layout
    rng = random.Random(zlib.crc32(case.encode()))
    sliced = 0
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        _mutate(rng, mutant, table)
        for written in (json.dumps(mutant), json.dumps(mutant, indent=2, sort_keys=True) + "\n"):
            outcome, whole, took_slices = _loads(monkeypatch, written)
            assert outcome == whole
            sliced += took_slices
    assert sliced  # some mutants reach past the slices' own checks


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------


def _base() -> dict:
    return scenarios.generate("memory_poisoning_tool_misuse", 0).build().to_dict()


def _with_content(content) -> str:
    doc = _base()
    doc["nodes"][3]["attributes"]["content"] = content
    return dump_json(doc)


def _first_gap(text: str) -> int:
    return text.index("\n    },\n    {", text.index('"nodes"'))


def _layouts():
    text, doc = dump_json(_base()), _base()
    gap = _first_gap(text)
    first_attributes = text.index('"attributes": {', text.index('"nodes"'))
    reordered = {key: doc[key] for key in ("nodes", "edges", "agents")}
    element_keys_reversed = {key: [dict(reversed(list(e.items()))) for e in doc[key]]
                             for key in sorted(doc)}
    not_an_object = _base()
    not_an_object["nodes"][2] = 5
    repeated = _base()
    repeated["edges"].insert(4, repeated["edges"][3])
    return {
        # to_json's own layout, or text that keeps its frame and gaps
        "to-json": (text, True),
        "element-keys-reversed": (json.dumps(element_keys_reversed, indent=2) + "\n", True),
        "escaped-gap-in-a-string": (_with_content("a\n    },\n    {b"), True),
        "empty-arrays": (dump_json({"agents": [], "edges": [], "nodes": []}), True),
        "no-edges": (dump_json({**doc, "edges": []}), True),
        "nan-attribute": (_with_content(float("nan")), True),
        "repeated-edge": (dump_json(repeated), False),
        "element-not-an-object": (dump_json(not_an_object), False),
        # other layouts
        "compact": (json.dumps(doc, sort_keys=True, separators=(",", ":")), False),
        "indent-4": (json.dumps(doc, indent=4, sort_keys=True) + "\n", False),
        "crlf": (text.replace("\n", "\r\n"), False),
        "trailing-whitespace": (text + " \n", False),
        "trailing-spaces-on-lines": (text.replace(",\n", ", \n"), False),
        "no-final-newline": (text[:-1], False),
        "reordered-keys": (json.dumps(reordered, indent=2, sort_keys=False) + "\n", False),
        "duplicated-last-key": (text[:-3] + ',\n  "nodes": []\n}\n', False),
        "duplicated-first-key": (text.replace('{\n  "agents": ', '{\n  "agents": [],\n  "agents": ',
                                              1), False),
        "bom": ("\ufeff" + text, False),
        "bytes": (text.encode("utf-8"), False),
        "extra-data": (text + "{}", False),
        # truncated text
        "truncated-half": (text[:len(text) // 2], False),
        "truncated-at-a-gap": (text[:gap + 6], False),
        "truncated-after-a-gap": (text[:gap + 13], False),
        "empty": ("", False),
        # the gap or the frame's text where it does not end an element
        "raw-gap-in-a-string": (text.replace('"content": "', '"content": "\n    },\n    {', 1),
                                False),
        # a slice ends there only when the slices are small enough to reach it
        "gap-inside-an-element": (text[:first_attributes] + '"attributes": {"made_up": [{\n    },'
                                  '\n    {}],' + text[first_attributes + 15:], True),
        # brackets that close the arrays a slice is decoded in, at its end
        # or between two of its elements
        "brackets-closing-a-slice": (text[:gap + 6] + "]" * 9 + " 1" + text[gap + 6:], False),
        "brackets-splitting-a-slice": (text[:gap + 6] + "]" * 8 + ",\n" + "[" * 8
                                       + text[gap + 7:], False),
        "frame-inside-an-element": (text.replace('"agent_id": ', '"x": [1\n  ],\n  "edges": [2],'
                                                 ' "agent_id": ', 1), False),
    }


_LAYOUTS = _layouts()


@pytest.mark.parametrize("name", _LAYOUTS)
def test_layouts_load_as_the_whole_path(monkeypatch, name):
    text, sliced = _LAYOUTS[name]
    outcome, whole, took_slices = _loads(monkeypatch, text)
    assert outcome == whole
    assert took_slices is sliced
    monkeypatch.setattr(graph_mod, "_SLICE", 1)
    outcome, whole, took_slices = _loads(monkeypatch, text)
    assert outcome == whole
    assert took_slices is (sliced and name != "gap-inside-an-element")


def test_the_layout_table_loads_and_rejects():
    loaded = {name for name, (text, _) in _LAYOUTS.items() if isinstance(_outcome(text)[0], str)}
    # every other layout of a whole document loads; truncated text does not
    assert {"compact", "indent-4", "crlf", "bytes", "duplicated-last-key",
            "gap-inside-an-element"} <= loaded
    assert not {"truncated-half", "truncated-at-a-gap", "raw-gap-in-a-string",
                "frame-inside-an-element", "brackets-closing-a-slice",
                "brackets-splitting-a-slice", "bom", "extra-data"} & loaded


# ---------------------------------------------------------------------------
# nesting at the decoder's depth limit
# ---------------------------------------------------------------------------


def _nested(depth: int) -> str:
    text = dump_json(_base())
    at = text.index('"attributes": {', text.index('"nodes"')) + 15
    return text[:at] + '"made_up": ' + "[" * depth + "]" * depth + "," + text[at:]


def _loads_at(monkeypatch, depth: int):
    """Whether from_json loads the text nested ``depth`` deep, on each path;
    a graph this deep is compared by the outcome alone, as its text and
    violations would recurse as deep again."""
    outcomes = []
    for declined in (False, True):
        with monkeypatch.context() as patch:
            if declined:
                patch.setattr(AgentBomGraph, "_load_slices", classmethod(lambda cls, text: None))
            try:
                AgentBomGraph.from_json(_nested(depth))
            except GraphDocumentError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append("loaded")
    return outcomes


def test_values_nested_to_the_depth_limit_load_as_the_whole_path(monkeypatch):
    # the shallowest depth that the whole path does not decode: past the
    # recursion limit on 3.11, past the C recursion limit on 3.12 and later
    low, high = 1, 100_000
    while low < high:
        middle = (low + high) // 2
        if _loads_at(monkeypatch, middle)[1] == "loaded":
            low = middle + 1
        else:
            high = middle
    assert 10 < low < 100_000
    for depth in range(low - 12, low + 3):
        sliced, whole = _loads_at(monkeypatch, depth)
        assert sliced == whole, depth
        assert (whole == "loaded") is (depth < low)
    assert sliced == "graph document nests too deep to decode"


# ---------------------------------------------------------------------------
# the element check's shortcut
# ---------------------------------------------------------------------------


def _checked(cls, table, what, doc):
    """from_dict as it was: check_fields, then the constructor."""
    schema.check_fields(doc, table, what, GraphDocumentError)
    element = cls(**doc)
    element.kind = (schema.parse_node_kind if cls is Node else schema.parse_edge_kind)(
        element.kind)
    return element


def _element_outcome(load, doc):
    try:
        element = load(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(element)


@pytest.mark.parametrize("case, kind, text, table, sid", _GRAPH_DOCUMENTS,
                         ids=[d[0] for d in _GRAPH_DOCUMENTS])
def test_element_mutants_load_as_check_fields_judges_them(case, kind, text, table, sid):
    # Node.from_dict and Edge.from_dict skip check_fields for a document
    # the constructor takes with the table's types; every element of every
    # mutant gives the element or the error check_fields gives
    rng = random.Random(zlib.crc32(case.encode()))
    seen = 0
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        _mutate(rng, mutant, table)
        if not isinstance(mutant, dict):
            continue
        for key, cls, element_table, what in (
                ("nodes", Node, schema.GRAPH_NODE, "node"),
                ("edges", Edge, schema.GRAPH_EDGE, "edge")):
            for doc in mutant.get(key) or ():
                assert (_element_outcome(cls.from_dict, doc)
                        == _element_outcome(lambda d: _checked(cls, element_table, what, d), doc))
                seen += 1
    assert seen
