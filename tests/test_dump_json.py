"""Referee for graph.dump_json: the stdlib's indented, key-sorted text.

dump_json replaces ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
everywhere the program writes indented JSON, so every comparison here is
against that expression, on seeded random documents and on the program's own
outputs.
"""

from __future__ import annotations

import enum
import json
import random

import pytest

from agentbom import scenarios
from agentbom.graph import dump_json
from agentbom.rules import audit, builtin_rules, dump_rules

DOCUMENTS = 20_000


class _Colour(str, enum.Enum):
    RED = "red"
    QUOTED = 'say "hi"'


# characters a JSON string encoder must escape or keep, ASCII and not
_ALPHABET = (
    "abcxyz019 _.-/"
    '"\\'
    "\x00\x01\x07\b\t\n\x0b\f\r\x1b\x1f\x7f"
    "\x80\xa0\xe9\xff\u0100\u2028\u2029\u20ac\ufeff\uffff"
    "\ud800\udbff\udc00\udfff"
    "\U00010000\U0001f600\U0010ffff"
)

_SPECIAL_NUMBERS = (
    0, -1, 2**63, -(2**63) - 1, 2**64, 3**90, -(7**80),
    0.0, -0.0, 0.1, -2.5, 1e300, -1e300, 1e-300, 5e-324, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
)


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 6)))


def _scalar(rng: random.Random):
    roll = rng.randrange(8)
    if roll == 0:
        return rng.choice(_SPECIAL_NUMBERS)
    if roll == 1:
        return rng.randint(-(2**70), 2**70)
    if roll == 2:
        return rng.uniform(-1e6, 1e6)
    if roll == 3:
        return rng.choice((True, False, None))
    if roll == 4:
        return rng.choice(list(_Colour))
    return _text(rng)


def _document(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return _scalar(rng)
    if roll < 0.55:
        return rng.choice(({}, [], ()))
    size = rng.randint(1, 4)
    if roll < 0.8:
        return {_text(rng): _document(rng, depth - 1) for _ in range(size)}
    items = [_document(rng, depth - 1) for _ in range(size)]
    return tuple(items) if rng.random() < 0.25 else items


def _stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_random_documents_match_the_stdlib_byte_for_byte():
    rng = random.Random(20260301)
    for index in range(DOCUMENTS):
        doc = _document(rng, rng.randint(0, 5))
        assert dump_json(doc) == _stdlib(doc), f"document {index}: {doc!r}"


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, None, {"a": {}}, {"a": []}, [[[]]], [{}],
    {"a": {"b": {"c": [{}, [], ()]}}}, {"key": _Colour.RED}, [_Colour.QUOTED],
    {"\ud800": "\U0001f600", "\x00": "\\\""},
])
def test_edge_documents_match_the_stdlib(doc):
    assert dump_json(doc) == _stdlib(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{None: 1}]}, {("a",): 1}, {True: "a"},
                                 {"content": {"basis": ["a"], 2: "b"}}, {"trace_id": [{5: "x"}]}])
def test_a_non_string_key_is_a_type_error(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def test_the_builtin_rule_pack_matches_the_stdlib():
    assert dump_rules(builtin_rules()) == _stdlib(
        {"rules": [r.to_dict() for r in builtin_rules()]})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario_id", scenarios.SCENARIO_IDS)
def test_every_written_document_matches_the_stdlib(tmp_path, scenario_id, seed):
    fixture = scenarios.generate(scenario_id, seed=seed)
    graph = fixture.build()
    assert graph.to_json() == _stdlib(graph.to_dict())
    report = audit(graph)
    assert report.to_json() == _stdlib(report.to_dict())
    assert fixture.manifest.to_json() == _stdlib(fixture.manifest.to_dict())
    paths = fixture.write(tmp_path)
    for key in ("manifest", "expected"):
        text = paths[key].read_text()
        assert text == _stdlib(json.loads(text))
