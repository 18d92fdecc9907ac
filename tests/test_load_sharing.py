"""What loading keeps, and what it leaves behind.

Parsed events and loaded graphs keep one string object per repeated id,
from_json's graphs and parsed events one per repeated attribute key, string
attribute value and content, from_dict leaves its document as it was,
from_json never holds its decoded document and a graph built from it both
whole, and the bulk conversions hand the collector back with no young
objects to walk.
"""

from __future__ import annotations

import copy
import gc
import json
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from agentbom import graph as graph_mod
from agentbom import scenarios
from agentbom.errors import GraphDocumentError
from agentbom.graph import AgentBomGraph
from agentbom.ingestion import assemble, parse_manifest_json, parse_trace_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)


@pytest.fixture(scope="module")
def replay():
    """The replay_poison workload at seed 0: its inputs, events, graph and
    graph text."""
    work = workloads.generate("replay_poison", 0)
    manifest = parse_manifest_json(work.manifest_text)
    events = parse_trace_jsonl(work.trace_text)
    graph = assemble(manifest, events)
    return {"trace": work.trace_text, "manifest": manifest, "events": events,
            "graph": graph, "text": graph.to_json()}


def _one_object_per_value(strings) -> bool:
    objects = {}
    return all(objects.setdefault(s, s) is s for s in strings if s is not None)


# ---------------------------------------------------------------------------
# sharing
# ---------------------------------------------------------------------------


def _trace(name: str) -> str:
    if name in workloads.WORKLOADS:
        return workloads.generate(name, 0).trace_text
    events = scenarios.generate(name, 0).events
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


@pytest.mark.parametrize("name", [*scenarios.SCENARIO_IDS, "replay_poison"])
def test_parsed_events_share_their_ids(name):
    events = parse_trace_jsonl(_trace(name))
    by_id = {event.event_id: event for event in events}
    assert _one_object_per_value(e.trace_id for e in events)
    assert _one_object_per_value(e.agent_id for e in events)
    assert _one_object_per_value(e.event_type for e in events)
    refs = [ref for event in events for ref in event.refs]
    assert refs
    assert all(ref is by_id[ref].event_id for ref in refs)


def _assert_shared(graph):
    nodes = graph.nodes
    assert _one_object_per_value([*graph.agents, *(n.agent_id for n in nodes.values())])
    assert _one_object_per_value(n.trace_id for n in nodes.values())
    stamped = 0
    for edge in graph.edges.values():
        assert edge.source is nodes[edge.source].node_id
        assert edge.target is nodes[edge.target].node_id
        if edge.timestamp is not None and edge.timestamp == nodes[edge.target].timestamp:
            assert edge.timestamp is nodes[edge.target].timestamp
            stamped += 1
    assert stamped


@pytest.mark.parametrize("load", ["from_json", "from_dict"])
def test_a_loaded_graph_shares_its_ids(replay, load):
    if load == "from_json":
        graph = AgentBomGraph.from_json(replay["text"])
    else:
        graph = AgentBomGraph.from_dict(json.loads(replay["text"]))
    _assert_shared(graph)
    assert graph.to_json() == replay["text"]


def _attribute_strings(graph):
    """(every attribute key, every string attribute value) of the graph."""
    attributes = [e.attributes for e in (*graph.nodes.values(), *graph.edges.values())]
    return ([key for a in attributes for key in a],
            [value for a in attributes for value in a.values() if type(value) is str])


@pytest.mark.parametrize("slice_size", [None, 1], ids=["default-slices", "one-byte-slices"])
def test_from_json_shares_attribute_keys_and_string_values(replay, monkeypatch, slice_size):
    if slice_size is not None:
        monkeypatch.setattr(graph_mod, "_SLICE", slice_size)
    keys, values = _attribute_strings(AgentBomGraph.from_json(replay["text"]))
    assert len(keys) > len(set(keys)) and len(values) > len(set(values))
    assert _one_object_per_value(keys)
    assert _one_object_per_value(values)
    # so does the whole-document path, which other layouts take
    keys, values = _attribute_strings(AgentBomGraph.from_json(replay["text"].replace("\n", "\r\n")))
    assert _one_object_per_value(keys) and _one_object_per_value(values)


def test_from_dict_keeps_the_callers_attribute_objects(replay):
    doc = json.loads(replay["text"])
    elements = {e.get("node_id", e.get("edge_id")): e for e in (*doc["nodes"], *doc["edges"])}
    held = {element_id: (e["attributes"], list(e["attributes"].items()))
            for element_id, e in elements.items()}
    graph = AgentBomGraph.from_dict(doc)
    for element_id, (attributes, items) in held.items():
        element = graph.element(element_id)
        assert element.attributes is attributes
        assert len(attributes) == len(items)
        assert all(key is k and value is v
                   for (key, value), (k, v) in zip(attributes.items(), items))


def test_parsed_events_share_attrs_and_content(replay):
    events = parse_trace_jsonl(replay["trace"])
    keys = [key for e in events for key in e.attrs]
    values = [value for e in events for value in e.attrs.values() if type(value) is str]
    contents = [e.content for e in events]
    assert len(keys) > len(set(keys)) and len(values) > len(set(values))
    assert len(contents) > len(set(contents))
    assert _one_object_per_value(keys)
    assert _one_object_per_value(values)
    assert _one_object_per_value(contents)


def test_a_dangling_endpoint_keeps_the_documents_id():
    doc = {"agents": [], "nodes": [{"node_id": "tool.t", "kind": "ToolNode"}],
           "edges": [{"edge_id": "e", "kind": "loads_tool", "source": "agent.gone",
                      "target": "tool.t"}]}
    graph = AgentBomGraph.from_dict(doc)
    assert graph.edges["e"].source == "agent.gone"
    assert graph.edges["e"].target is graph.nodes["tool.t"].node_id
    assert [v.code for v in graph.validate()] == ["dangling_endpoint"]


def test_from_dict_leaves_its_document_as_it_was(replay):
    doc = json.loads(replay["text"])
    before = copy.deepcopy(doc)
    lists = {key: (value, list(value)) for key, value in doc.items()}
    AgentBomGraph.from_dict(doc)
    assert doc == before
    for key, (value, items) in lists.items():
        assert doc[key] is value
        assert len(value) == len(items) and all(map(lambda a, b: a is b, value, items))
    # and when a later element fails to load
    doc["edges"].append({"edge_id": "e.bad"})
    before = copy.deepcopy(doc)
    with pytest.raises(GraphDocumentError):
        AgentBomGraph.from_dict(doc)
    assert doc == before


# ---------------------------------------------------------------------------
# memory: from_json's peak stays near the graph it builds
# ---------------------------------------------------------------------------


def _traced(call):
    """(result, traced peak above the start, traced size of the result)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, size - start


def test_from_json_peaks_near_the_graph_it_builds(replay):
    text = replay["text"]
    graph, load_peak, size = _traced(lambda: AgentBomGraph.from_json(text))
    assert len(graph.nodes) == len(replay["graph"].nodes)
    # decoding the whole document before converting it peaked at 1.37
    # times the graph; a slice at a time, the graph is most of the peak
    assert load_peak <= 1.1 * size, (load_peak, size)


# ---------------------------------------------------------------------------
# the collector after a bulk conversion
# ---------------------------------------------------------------------------

CALLS = {
    "parse_trace_jsonl": lambda r: parse_trace_jsonl(r["trace"]),
    "assemble": lambda r: assemble(r["manifest"], r["events"]),
    "to_json": lambda r: r["graph"].to_json(),
    "from_json": lambda r: AgentBomGraph.from_json(r["text"]),
    "digest": lambda r: r["graph"].digest(),
}


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.mark.parametrize("call", CALLS)
def test_no_collection_starts_right_after_a_conversion(replay, collector_on, call):
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    # with no young objects left over, what the call allocates before its
    # pause cannot set off a collection; one that starts comes after it
    gc.collect(0)
    gc.callbacks.append(record)
    try:
        result = CALLS[call](replay)
        held = [[] for _ in range(gc.get_threshold()[0] // 2)]
    finally:
        gc.callbacks.remove(record)
    assert result is not None and held
    assert starts == []


@pytest.mark.parametrize("call", CALLS)
def test_a_callers_frozen_objects_stay_frozen(replay, collector_on, call):
    before = gc.get_freeze_count()
    CALLS[call](replay)
    assert gc.get_freeze_count() == before
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        CALLS[call](replay)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


_FROZEN_BEFORE_IMPORT = """
import gc, sys
gc.freeze()
assert gc.get_freeze_count() > 0
sys.path[:0] = sys.argv[1:]
import workloads
from agentbom.ingestion import parse_trace_jsonl

text = workloads.generate("replay_poison", 0).trace_text
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(phase))


def handed_off():
    # as test_no_collection_starts_right_after_a_conversion
    gc.collect(0)
    del starts[:]
    result = parse_trace_jsonl(text)
    held = [[] for _ in range(gc.get_threshold()[0] // 2)]
    return bool(result and held) and not starts


first = handed_off()
released = gc.get_freeze_count() == 0
second = handed_off()
gc.freeze()
frozen = gc.get_freeze_count()
parse_trace_jsonl(text)
print(first, released, second, gc.get_freeze_count() == frozen)
"""


def test_objects_frozen_before_import_count_as_the_interpreters():
    # an interpreter may start with frozen objects (3.12.1 does): conversions
    # still hand their survivors off, the first releasing those objects, and
    # what the program freezes after that stays frozen
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _FROZEN_BEFORE_IMPORT, str(root / "src"),
         str(root / "bench")], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True"] * 4


class _Cell:
    pass


@pytest.mark.parametrize("call", CALLS)
def test_a_callers_cycle_is_still_collected(replay, collector_on, call):
    cell = _Cell()
    cell.self = cell
    alive = weakref.ref(cell)
    del cell
    CALLS[call](replay)
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("call", CALLS)
def test_a_disabled_collector_stays_disabled(replay, call):
    was = gc.isenabled()
    gc.disable()
    try:
        CALLS[call](replay)
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()
