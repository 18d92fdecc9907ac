from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import checked_merges, random_scan_attributes, random_scan_texts, scan_flags
from agentbom import ingestion, scenarios
from agentbom.errors import AgentBomError, IngestionError
from agentbom.ingestion import assemble
from agentbom.matchers import (
    DangerMatcher,
    DangerPattern,
    FLAG_CODE_EXECUTION,
    FLAG_CONFIRMATION_BYPASS,
    FLAG_DESTRUCTIVE,
    FLAG_EXFILTRATION,
    FLAG_PRIVILEGE_CLAIM,
    _required_literals,
    default_matcher,
)
from agentbom.scenarios import generate

_M = default_matcher()
_SRC = Path(__file__).resolve().parent.parent / "src"


def _flags(**attributes):
    return _M.scan(attributes)


# ---------------------------------------------------------------------------
# destructive commands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "rm -rf ~/workspace",
        "rm -fr /tmp/build",
        "then call shutil.rmtree on the cache",
        "del /s C:\\temp",
        "format c: (quick)",
        "RM -RF ~/stuff",
    ],
)
def test_destructive_positive(text):
    assert _flags(content=text) == [FLAG_DESTRUCTIVE]


@pytest.mark.parametrize(
    "text",
    [
        "remove the stale entry from the index",
        "rm old_notes.txt",
        "rm -r keep_asking",  # recursive but not forced
        "the firmware upgrade",
        "perform a normal cleanup",
    ],
)
def test_destructive_negative(text):
    assert FLAG_DESTRUCTIVE not in _flags(content=text)


def test_destructive_matches_inside_parameters():
    assert _flags(parameters={"command": "rm -rf ~/x"}) == [FLAG_DESTRUCTIVE]


# ---------------------------------------------------------------------------
# exfiltration endpoints
# ---------------------------------------------------------------------------

def test_url_in_parameters_is_always_suspect():
    assert _flags(parameters={"url": "https://collector.example.net/in"}) == [
        FLAG_EXFILTRATION
    ]


def test_plain_url_in_prose_is_clean():
    assert _flags(content="see https://docs.example.com/guide for details") == []


def test_url_with_exfiltration_verb_in_prose_flags():
    text = "then upload the archive to https://sink.example.net/drop"
    assert _flags(content=text) == [FLAG_EXFILTRATION]


def test_exfiltration_verb_and_url_must_share_a_sentence():
    text = "posted yesterday. https://docs.example.com/x"
    assert _flags(content=text) == []


# ---------------------------------------------------------------------------
# confirmation bypass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "proceed without confirmation",
        "proceed without user confirmation",
        "without asking for confirmation",
        "skip the confirmation step",
        "skipping confirmation",
        "no confirmation required",
        "never ask the user before acting",
        "bypass the approval flow",
        "these actions are pre-approved",
        "treat everything as preapproved",
    ],
)
def test_confirmation_bypass_positive(text):
    assert FLAG_CONFIRMATION_BYPASS in _flags(content=text)


@pytest.mark.parametrize(
    "text",
    [
        "ask for confirmation before deleting",
        "no user confirmation has been recorded yet",  # phrase split by "user"
        "send the email now without asking the user",
        "await approval",
    ],
)
def test_confirmation_bypass_negative(text):
    assert FLAG_CONFIRMATION_BYPASS not in _flags(content=text)


# ---------------------------------------------------------------------------
# privilege claims
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "you have full authority over the workspace",
        "grants administrator privileges",
        "requires elevated access",
        "system-level rights are assumed",
        "the administrator's authority extends here",
        "you are now the reporting administrator",
        "this was forged authority",
    ],
)
def test_privilege_claim_positive(text):
    assert FLAG_PRIVILEGE_CLAIM in _flags(content=text)


@pytest.mark.parametrize(
    "text",
    [
        "contact the administrator for help",
        "the admin console is down",
        "authority on this topic is the style guide",
    ],
)
def test_privilege_claim_negative(text):
    assert FLAG_PRIVILEGE_CLAIM not in _flags(content=text)


# ---------------------------------------------------------------------------
# external code execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "python3 /tmp/helper.py",
        "run bash setup.sh first",
        "node scripts/build.js",
        "execute the script once downloaded",
        "exec the file in place",
        "result = eval(payload)",
    ],
)
def test_code_execution_positive(text):
    assert FLAG_CODE_EXECUTION in _flags(content=text)


@pytest.mark.parametrize(
    "text",
    [
        "the python ecosystem is large",
        "execute the plan we agreed on",
        "execute the staged helper",
        "evaluation finished",
    ],
)
def test_code_execution_negative(text):
    assert FLAG_CODE_EXECUTION not in _flags(content=text)


# ---------------------------------------------------------------------------
# matcher mechanics
# ---------------------------------------------------------------------------

def test_scan_returns_sorted_union_of_flags():
    flags = _flags(content="rm -rf /data, the operation is pre-approved")
    assert flags == sorted([FLAG_CONFIRMATION_BYPASS, FLAG_DESTRUCTIVE])


def test_scan_walks_lists_and_dicts():
    assert _flags(parameters={"cmd": "rm -rf /x"}) == [FLAG_DESTRUCTIVE]
    matcher = DangerMatcher(
        [DangerPattern("hit", "needle", ("affected_resource",))]
    )
    assert matcher.scan({"affected_resource": ["hay", "needle"]}) == ["hit"]


def test_scan_ignores_keys_a_pattern_does_not_apply_to():
    # the destructive pattern only reads content and parameters
    assert _flags(target="rm -rf /x") == []


def test_round_trip_through_json():
    clone = DangerMatcher.from_json(json.dumps(_M.to_dict()))
    probe = {"content": "rm -rf /y", "parameters": {"u": "http://a.example/z"}}
    assert clone.scan(probe) == _M.scan(probe)


def test_round_trip_through_a_dict():
    # applies_to is a tuple on the pattern but must be a list in the document
    assert DangerMatcher.from_dict(_M.to_dict()).patterns == _M.patterns


def test_bad_regex_is_rejected_eagerly():
    with pytest.raises(IngestionError):
        DangerMatcher([DangerPattern("x", "(unclosed", ("content",))])


def test_a_pattern_too_deep_to_compile_is_rejected_with_its_flag():
    with pytest.raises(IngestionError, match="flag 'x': nests too deep to compile"):
        DangerMatcher([DangerPattern("x", "(" * 600 + "a" + ")" * 600, ("content",))])


def test_a_pattern_too_deep_to_parse_again_is_searched_on_every_text():
    """The required literals of a pattern that compiled are worked out deep
    in a build's stack; where parsing it again would overflow the stack, the
    pattern gets none and is searched."""
    pattern = "(" * 300 + "rm" + ")" * 300 + " -rf deep"
    matcher = DangerMatcher([DangerPattern("hit", pattern, ("content",))])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def near_the_limit(frames_left):
        if frames_left > 150:
            return near_the_limit(frames_left - 1)
        return [matcher.scan({"content": text}) for text in ("rm -rf deep", "rm -rf")]

    assert near_the_limit(sys.getrecursionlimit() - depth) == [["hit"], []]
    assert _required_literals(pattern) is None


def test_pack_without_patterns_list_is_rejected():
    with pytest.raises(IngestionError):
        DangerMatcher.from_dict({"rules": []})


@pytest.mark.parametrize("applies_to", ["content", 5, [5]])
def test_applies_to_must_be_a_list_of_keys(applies_to):
    entry = {"flag": "f", "pattern": "x", "applies_to": applies_to}
    with pytest.raises(IngestionError, match="'applies_to' must be a list"):
        DangerMatcher.from_dict({"patterns": [entry]})


@pytest.mark.parametrize("field, value", [
    ("flag", ["x"]), ("flag", 5), ("flag", ""), ("pattern", 5), ("pattern", ["x"]),
])
def test_flag_and_pattern_must_be_strings(field, value):
    entry = dict({"flag": "f", "pattern": "x", "applies_to": ["content"]},
                 **{field: value})
    with pytest.raises(IngestionError, match=f"'{field}' must be"):
        DangerMatcher.from_dict({"patterns": [entry]})


def test_a_pack_that_is_not_json_is_an_ingestion_error():
    with pytest.raises(IngestionError, match="not valid JSON"):
        DangerMatcher.from_json("{bad")


def test_pattern_entry_names_its_missing_field():
    with pytest.raises(IngestionError, match="missing field 'pattern'"):
        DangerMatcher.from_dict({"patterns": [{"flag": "f", "applies_to": []}]})


# ---------------------------------------------------------------------------
# the per-build table of scanned texts
# ---------------------------------------------------------------------------

# two patterns raise one flag under different keys, patterns share keys,
# and one pattern lists its key twice
_SHARED_FLAG_PACK = (
    DangerPattern("shared", r"needle", ("content",)),
    DangerPattern("shared", r"hay\d", ("target", "affected_resource")),
    DangerPattern("link", r"https?://\S+", ("target", "content")),
    DangerPattern("report", r"weekly\s+report", ("name", "name")),
)


@pytest.mark.parametrize("patterns", [_M.patterns, _SHARED_FLAG_PACK],
                         ids=["default-pack", "shared-flag-pack"])
def test_scan_agrees_with_the_per_pattern_loop(patterns):
    rng = random.Random(1303)
    texts = random_scan_texts(rng)
    matcher = DangerMatcher(patterns)  # one matcher, so later calls hit its table
    raised = set()
    for _ in range(2500):
        attributes = random_scan_attributes(rng, texts)
        flags = matcher.scan(attributes)
        assert flags == scan_flags(patterns, attributes), attributes
        raised.update(flags)
    assert raised == {p.flag for p in patterns}


class _CountingPattern:
    """A compiled pattern that records every search."""

    def __init__(self, compiled, searches):
        self._compiled = compiled
        self._searches = searches

    def search(self, text):
        self._searches.append(text)
        return self._compiled.search(text)


def test_each_build_scans_with_a_table_of_its_own(monkeypatch):
    searches = []
    compile_ = re.compile
    with monkeypatch.context() as patch:
        patch.setattr(re, "compile", lambda pattern, flags=0:
                      _CountingPattern(compile_(pattern, flags), searches))
        matcher = default_matcher()
    fixture = generate("ecosystem_hijacking")  # repeats 3 of its 20 texts
    counts, graphs = [], []
    for _ in range(2):
        before = len(searches)
        graphs.append(assemble(fixture.manifest, fixture.events, matcher).to_json())
        counts.append(len(searches) - before)
    assert counts[0] == counts[1] > 0
    assert graphs[0] == graphs[1]
    assert not any(matcher._flags.values())  # the caller's matcher kept nothing
    # one matcher searches a (key, text) pair once; a fresh copy again
    probe = {"content": "rm -rf /x", "parameters": ["rm -rf /x", "rm -rf /x"]}
    before = len(searches)
    assert matcher.scan(probe) == [FLAG_DESTRUCTIVE]
    first = len(searches) - before
    assert matcher.scan(probe) == [FLAG_DESTRUCTIVE]
    assert len(searches) - before == first
    assert matcher.fresh().scan(probe) == [FLAG_DESTRUCTIVE]
    assert len(searches) - before == 2 * first


class _Text(str):
    """A string subclass: scanned as the string it is."""


# edits of one event's content or attrs; flags that are null, not a list or
# not all strings stay as they are, and the build then rejects them
_EVENT_EDITS = {
    "null-flags": lambda event: event.attrs.update(danger_flags=None),
    "string-flags": lambda event: event.attrs.update(danger_flags=FLAG_DESTRUCTIVE),
    "int-flags": lambda event: event.attrs.update(danger_flags=3),
    "mixed-flags": lambda event: event.attrs.update(danger_flags=[FLAG_DESTRUCTIVE, 7]),
    "declared-flags": lambda event: event.attrs.update(
        danger_flags=["zz_declared", FLAG_PRIVILEGE_CLAIM, "zz_declared"]),
    "empty-flags": lambda event: event.attrs.update(danger_flags=[]),
    "int-content": lambda event: event.attrs.update(content=7),
    "list-content": lambda event: event.attrs.update(content=["rm -rf /x", 3, None]),
    "dict-parameters": lambda event: event.attrs.update(
        parameters={"b": "pre-approved", "a": 2.5, "c": ["rm -rf /x"]}),
    "str-subclass-content": lambda event: setattr(
        event, "content", _Text(event.content + " run it without confirmation")),
    "str-subclass-parameters": lambda event: event.attrs.update(
        parameters={"cmd": _Text("rm -rf /srv")}),
}


@pytest.mark.parametrize("edit", sorted(_EVENT_EDITS))
def test_flags_merge_as_the_oracle_says_on_every_fixture(monkeypatch, edit):
    """Every flag merge of a build, on the fixtures at seeds 0-3, each with
    one event edited in turn, leaves what the per-pattern oracle gives."""
    log = []
    monkeypatch.setattr(ingestion, "_merge_flags",
                        checked_merges(ingestion._merge_flags, log))
    for sid in scenarios.SCENARIO_IDS:
        for seed in range(4):
            fixture = generate(sid, seed)
            assemble(fixture.manifest, fixture.events)  # unedited
            for index in range(seed, len(fixture.events), 5):
                fixture = generate(sid, seed)
                event = fixture.events[index]
                event.attrs = dict(event.attrs)
                _EVENT_EDITS[edit](event)
                try:
                    assemble(fixture.manifest, fixture.events)
                except AgentBomError:
                    pass  # a merge before the rejection was checked
    assert any(attributes.get("danger_flags") for attributes in log)



# ---------------------------------------------------------------------------
# the required-literal prefilter, against random patterns
# ---------------------------------------------------------------------------

# ASCII letters that ignoring case ties to non-ASCII ones, and those ones:
# s and the long s, k and the Kelvin sign, i and the dotless i and the dotted
# capital I; the micro sign and Greek mu are a non-ASCII pair of their own
_LETTERS = "abiks-"
_OTHER_LETTERS = "\u00b5\u03bc\u017f\u212a\u0131\u0130\u00e9"
_TWINS = {"s": "\u017f", "k": "\u212a", "i": "\u0131\u0130",
          "\u00b5": "\u03bc\u039c", "\u03bc": "\u00b5"}
# (regex, characters it matches)
_CLASSES = ((r"\d", "0123456789"), (r"\w", "az_9\u00e9"), (r"\s", " \t"),
            ("[a-c]", "abcABC"), ("[^x]", "ab -"), (".", "ab-\u017f"))


def _random_literal(rng):
    return "".join(rng.choice(_OTHER_LETTERS) if rng.random() < 0.1
                   else rng.choice(_LETTERS) for _ in range(rng.randint(1, 3)))


def _random_node(rng, groups, depth=0):
    """A random pattern tree. ``groups`` is [capturing groups opened so far,
    numbers of those closed]; a backreference names a closed one."""
    roll = rng.random() if depth < 3 else 0.0
    if roll < 0.30:
        return ("lit", _random_literal(rng))
    if roll < 0.40:
        return ("class",) + rng.choice(_CLASSES)
    if roll < 0.50:
        return ("seq", [_random_node(rng, groups, depth + 1)
                        for _ in range(rng.randint(2, 3))])
    if roll < 0.62:
        return ("alt", [_random_node(rng, groups, depth + 1)
                        for _ in range(rng.randint(2, 3))])
    if roll < 0.68:
        groups[0] += 1
        number = groups[0]
        body = _random_node(rng, groups, depth + 1)
        groups[1].append(number)
        return ("group", number, body)
    if roll < 0.80:
        lo, hi, suffix = rng.choice(((0, 1, "?"), (0, 3, "*"), (1, 3, "+"), None)) \
            or _random_bounds(rng)
        if rng.random() < 0.3:
            suffix += "?"  # lazy
        return ("repeat", _random_node(rng, groups, depth + 1), lo, hi, suffix)
    if roll < 0.84:
        return ("bound",)
    if roll < 0.90:
        kind = rng.choice(("?=", "?!", "?<=", "?<!"))
        body = (("lit", _random_literal(rng)) if "<" in kind  # fixed width
                else _random_node(rng, groups, depth + 1))
        return ("look", kind, body)
    if roll < 0.94 and groups[1]:
        return ("backref", rng.choice(groups[1]))
    return ("exact", _random_node(rng, groups, depth + 1))


def _random_bounds(rng):
    lo = rng.randint(0, 2)
    hi = rng.randint(lo, 3)
    return lo, hi, f"{{{lo},{hi}}}"


def _render(node) -> str:
    tag = node[0]
    if tag == "lit":
        return re.escape(node[1])
    if tag == "class":
        return node[1]
    if tag == "seq":
        return "".join(map(_render, node[1]))
    if tag == "alt":
        return "(?:" + "|".join(map(_render, node[1])) + ")"
    if tag == "group":
        return "(" + _render(node[2]) + ")"
    if tag == "repeat":
        return "(?:" + _render(node[1]) + ")" + node[4]
    if tag == "bound":
        return r"\b"
    if tag == "look":
        return "(" + node[1] + _render(node[2]) + ")"
    if tag == "backref":
        return f"\\{node[1]}"
    return "(?-i:" + _render(node[1]) + ")"  # exact


def _sample(rng, node, captured, exact=False) -> str:
    """A text the node likely matches, in random case where case is ignored,
    with some letters swapped for the non-ASCII letters ignoring case ties
    them to."""
    tag = node[0]
    if tag == "lit":
        if exact:
            return node[1]
        out = []
        for char in node[1]:
            roll = rng.random()
            if roll < 0.25 and char in _TWINS:
                char = rng.choice(_TWINS[char])
            elif roll < 0.6:
                char = char.upper()
            out.append(char)
        return "".join(out)
    if tag == "class":
        return rng.choice(node[2])
    if tag == "seq":
        return "".join(_sample(rng, item, captured, exact) for item in node[1])
    if tag == "alt":
        return _sample(rng, rng.choice(node[1]), captured, exact)
    if tag == "group":
        captured[node[1]] = _sample(rng, node[2], captured, exact)
        return captured[node[1]]
    if tag == "repeat":
        count = rng.randint(node[2], node[3])
        return "".join(_sample(rng, node[1], captured, exact) for _ in range(count))
    if tag == "backref":
        return captured.get(node[1], "")
    if tag == "exact":
        return _sample(rng, node[1], captured, exact=True)
    return ""  # bound, look


def test_required_literals_are_worked_out_lazily_and_once():
    """Neither importing the package nor default_matcher() parses a pattern;
    the first text that needs a pattern's literals does, once per process,
    and fresh() copies reuse them."""
    probe = ("import agentbom, agentbom.matchers as m; agentbom.default_matcher(); "
             "print(m._required_literals.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert done.stdout.strip() == "0"
    _required_literals.cache_clear()
    matcher = default_matcher()
    assert _required_literals.cache_info().currsize == 0
    matcher.scan({"content": "plain words"})
    read = {key: {p.pattern for p in matcher.patterns if key in p.applies_to}
            for key in ("content", "parameters")}
    assert _required_literals.cache_info().misses == len(read["content"])
    for clone in (matcher.fresh(), default_matcher().fresh()):
        clone.scan({"content": "other words", "parameters": ["more words"]})
    assert _required_literals.cache_info().misses == len(read["content"] | read["parameters"])
    assert matcher.fresh()._searches is matcher._searches


# texts made of the letters ignoring case ties to others
_TWIN_TEXTS = ("", "\u017f", "\u212a", "\u0131", "\u0130", "\u00b5", "kiss", "SKI",
               "a\u017fk", "\u212aI-\u0131", "b\u00b5\u03bcs", "sik ab")


def test_the_prefilter_agrees_with_searching_every_pattern():
    """Random patterns (literals, alternations, groups, repeats, classes,
    word boundaries, lookarounds, backreferences, case-sensitive groups,
    non-ASCII literals), each scanned over texts sampled from it and texts
    with the long s, the Kelvin sign, the dotless i, the dotted capital I and
    the micro sign: the matcher raises what searching every pattern
    raises."""
    rng = random.Random(1818)
    checked = matched = 0
    for _ in range(600):
        tree = _random_node(rng, [0, []])
        patterns = [DangerPattern("hit", _render(tree), ("content",))]
        matcher = DangerMatcher(patterns)
        texts = set(rng.sample(_TWIN_TEXTS, 2))
        for _ in range(5):
            sample = _sample(rng, tree, {})
            texts.add(rng.choice(("", "x ", "Q-", "\u00e9 ", "\u017f")) + sample
                      + rng.choice(("", " y", "-z")))
        for text in sorted(texts):
            attributes = {"content": text}
            flags = matcher.scan(attributes)
            assert flags == scan_flags(patterns, attributes), (patterns[0].pattern, text)
            checked += 1
            matched += bool(flags)
    # most samples match their pattern
    assert checked > 3000 and matched > checked // 3
