"""parse_trace_jsonl against a per-line json.loads referee.

parse_trace_jsonl decodes a line with the JSON decoder's C scanner when the
scanner takes the line whole, and with json.loads otherwise. The referee
below decodes every line with json.loads, as the parser did before it had
the scanner. Both must give the same events, or the same error, on the
fixtures, the bench workloads, the fuzzer's trace mutants and a table of
odd lines.
"""

from __future__ import annotations

import json
import random
import sys
import zlib
from pathlib import Path

import pytest

from test_fuzz import _DOCUMENTS, MUTANTS_PER_DOCUMENT, _mutate

from agentbom import ingestion, scenarios, schema
from agentbom.errors import AgentBomError, TraceParseError
from agentbom.ingestion import TraceEvent, parse_trace_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)


def _referee(text: str) -> list:
    events = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        doc = schema.load_json(line, f"trace line {lineno}", TraceParseError)
        try:
            events.append(TraceEvent.from_dict(doc))
        except TraceParseError as exc:
            raise TraceParseError(f"trace line {lineno}: {exc}") from None
    return events


def _outcome(parse, text):
    """The events' repr, which tells -0.0 from 0.0 and shows a NaN, or the
    error's class and message."""
    try:
        return repr(parse(text))
    except AgentBomError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(text):
    expected = _outcome(_referee, text)
    assert _outcome(parse_trace_jsonl, text) == expected
    return expected


def _fixture_trace(sid, seed):
    """The trace.jsonl text that Scenario.write gives."""
    events = scenarios.generate(sid, seed).events
    return "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in events) + "\n"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_fixture_traces_decode_as_the_referee(sid, seed):
    assert isinstance(_assert_same(_fixture_trace(sid, seed)), str)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_traces_decode_as_the_referee(name, seed):
    assert isinstance(_assert_same(workloads.generate(name, seed).trace_text), str)


_TRACE_DOCUMENTS = [d for d in _DOCUMENTS if d[1] == "trace"]


@pytest.mark.parametrize("case, kind, text, table, sid", _TRACE_DOCUMENTS,
                         ids=[d[0] for d in _TRACE_DOCUMENTS])
def test_trace_mutants_decode_as_the_referee(case, kind, text, table, sid):
    # the mutants test_fuzz makes: the same seed, the same draws
    rng = random.Random(zlib.crc32(case.encode()))
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = json.loads(text)
        _mutate(rng, mutant, table)
        _assert_same("".join(json.dumps(e) + "\n" for e in mutant))


# ---------------------------------------------------------------------------
# odd lines
# ---------------------------------------------------------------------------

_EVENT = {"event_id": "x1", "trace_id": "t1", "agent_id": "a", "event_type": "external_input",
          "timestamp": "2026-03-01T10:00:00Z", "content": "hello"}
_LINE = json.dumps(_EVENT)
_FIRST = json.dumps({**_EVENT, "event_id": "x0"})


def _with_attr(value_text: str) -> str:
    """The event line with ``"attrs": {"v": <value_text>}``, the value as written."""
    return _LINE[:-1] + ', "attrs": {"v": ' + value_text + "}}"


def _with_content(content: str) -> str:
    return json.dumps({**_EVENT, "content": content}, ensure_ascii=False)


ODD_LINES = {
    "spaces": "  " + _LINE + "  ",
    "tabs": "\t" + _LINE + "\t",
    "crlf": _LINE + "\r",
    "bom": "\ufeff" + _LINE,
    "two-objects": _LINE + _LINE,
    "two-objects-spaced": _LINE + " " + _LINE,
    "trailing-garbage": _LINE + "x",
    "trailing-comma": _LINE + ",",
    "nan": _with_attr("NaN"),
    "infinity": _with_attr("Infinity"),
    "minus-infinity": _with_attr("-Infinity"),
    "huge-float": _with_attr("1e400"),
    "minus-zero": _with_attr("-0.0"),
    "int-64": _with_attr(str(2 ** 64)),
    "int-huge": _with_attr(str(-(3 ** 200))),
    "raw-u2028": _with_content("one\u2028two"),
    "raw-u0085": _with_content("one\u0085two"),
    "deep": _with_attr("[" * 100_000 + "]" * 100_000),
    "form-feed-only": "\f",
    "not-json": "{event}",
    "empty-object": "{}",
    "array": "[1, 2]",
    "bare-string": '"x1"',
}


@pytest.mark.parametrize("line", ODD_LINES.values(), ids=ODD_LINES)
def test_odd_lines_decode_as_the_referee(line):
    outcome = _assert_same(_FIRST + "\n" + line + "\n")
    if line in (_LINE + "\r", "  " + _LINE + "  ", "\f"):
        assert isinstance(outcome, str)  # JSON whitespace, or a blank line


def test_crlf_trace_parses_as_its_lf_copy():
    text = _fixture_trace("benign_baseline", 0)
    assert parse_trace_jsonl(text.replace("\n", "\r\n")) == parse_trace_jsonl(text)


def _deep_outcome(parse, text):
    """The events' count and the nesting of the last one's attrs value, or
    the error's class and message; repr and == would recurse past the
    limit on such a value."""
    try:
        events = parse(text)
    except AgentBomError as exc:
        return type(exc).__name__, str(exc)
    value, depth = events[-1].attrs["v"], 0
    while isinstance(value, list):
        value, depth = (value[0] if value else None), depth + 1
    return len(events), depth


def test_lines_nested_near_the_recursion_limit_decode_as_the_referee():
    # the scanner alone runs a few frames shallower than json.loads, so on
    # 3.11, whose decoder shares the recursion limit with Python frames, a
    # line nested just short of the limit could parse while json.loads
    # rejects it (953-956 deep when run under pytest). Where that falls
    # depends on the caller's depth, so a wide band of depths is tried.
    # A bare array nests as deep as its length allows.
    differ = []
    for depth in range(900, 1001):
        for line in (_with_attr("[" * depth + "]" * depth), "[" * depth + "]" * depth):
            text = _FIRST + "\n" + line + "\n"
            if _deep_outcome(parse_trace_jsonl, text) != _deep_outcome(_referee, text):
                differ.append(depth)
    assert differ == []


def _deeper(levels, call, *args):
    """``call(*args)``, made ``levels`` nested calls below this one."""
    return call(*args) if levels == 0 else _deeper(levels - 1, call, *args)


def test_lines_parsed_near_the_recursion_limit_decode_as_the_referee():
    # a line the scanner may take (shorter than _SCANNED) that nests nearly
    # as deep as that allows, parsed from deeper and deeper callers, so the
    # limit passes through the few calls by which json.loads runs deeper
    nest = ingestion._SCANNED // 2 - 4
    line = '{"v": ' + "[" * nest + "]" * nest + "}"
    assert len(line) < ingestion._SCANNED
    text = _FIRST + "\n" + line + "\n"
    differ, levels = [], 0
    while True:
        try:
            parsed, refereed = (_deeper(levels, _deep_outcome, parse, text)
                                for parse in (parse_trace_jsonl, _referee))
        except RecursionError:
            break  # no room left to parse anything
        if parsed != refereed:
            differ.append(levels)
        levels += 1
    assert levels > ingestion._SCANNED // 2 and differ == []
