"""Deterministic content scanning that turns text into danger flags.

A matcher holds a list of case-insensitive regex patterns, each tagged with
the flag it raises and the attribute keys it applies to. Scanning happens at
ingestion time; the audit rules afterwards only ever look at the resulting
danger_flags lists, never at raw text.

A pattern raises its flag when any text under any of its keys matches, so
the flags of an element are the union, over its (key, text) pairs, of the
flags each pair raises. The matcher groups its patterns by key once and
keeps, per key, a table of the flags each text it has scanned raised, so a
text repeated under one key (a message's content on its send node, its
receive node and its edge; a recurring job's events) costs the regex engine
once. The table lives for one build: assemble() scans with fresh(), a copy
of the caller's matcher with empty tables. A matcher reused across builds
thus neither grows without bound in a long-lived process nor lets a later
build skip the scanning an earlier one did. Code that calls scan() itself
fills the matcher's own tables and can take fresh() per batch instead.

Most texts match no pattern, so a text new to a key is first checked
against each pattern's required literals: a set of lowercase ASCII strings,
read off the pattern's parse tree, of which every match contains one ("http"
for the URL pattern below). An ASCII text is lowercased once, and a pattern
none of whose strings occur in it is not searched. A text that is not ASCII
is always searched, since ignoring case equates some ASCII letters with
other letters (s with the long s, k with the Kelvin sign), and so is a
pattern with no required literal, such as one made only of digit classes,
or one that nests too deep to parse again where the literals are needed.
The literals are worked out once per pattern per process, when a text first
needs them, so neither import nor default_matcher() pays for them.
"""

from __future__ import annotations

import copy
import functools
import re

try:
    from re import _parser as _sre  # Python 3.11+
except ImportError:  # Python 3.10; importing it on 3.11+ is deprecated
    import sre_parse as _sre

from .errors import IngestionError
from .record import FrozenRecord
from .schema import MATCHER_PACK, MATCHER_PATTERN, check_fields, load_json, quoted


class DangerPattern(FrozenRecord):
    __slots__ = ("flag", "pattern", "applies_to")

    def __init__(self, flag: str, pattern: str, applies_to: tuple):
        _set = object.__setattr__
        _set(self, "flag", flag)
        _set(self, "pattern", pattern)
        _set(self, "applies_to", applies_to)

    def to_dict(self) -> dict:
        return {
            "flag": self.flag,
            "pattern": self.pattern,
            "applies_to": list(self.applies_to),
        }


class DangerMatcher:
    """Applies a pattern pack to element attributes."""

    def __init__(self, patterns):
        self.patterns = tuple(patterns)
        groups = {}
        for item in self.patterns:
            try:
                compiled = re.compile(item.pattern, re.IGNORECASE)
            except re.error as exc:
                raise IngestionError(
                    f"bad danger pattern for flag {quoted(item.flag)}: {exc}"
                ) from None
            except RecursionError:
                raise IngestionError(
                    f"bad danger pattern for flag {quoted(item.flag)}: nests too deep to compile"
                ) from None
            for key in item.applies_to:
                groups.setdefault(key, []).append((item.flag, compiled, item.pattern))
        # attribute key -> the (flag, compiled pattern, source) triples that read it
        self._groups = {key: tuple(group) for key, group in groups.items()}
        # attribute key -> {text: the flags its group raises on that text}
        self._flags = {key: {} for key in self._groups}
        # attribute key -> its group's (flag, compiled pattern, required
        # literals) triples, made when a text new to the key first needs
        # them and shared with every fresh() copy
        self._searches = {}

    def fresh(self) -> "DangerMatcher":
        """This matcher with an empty flag table, for one build."""
        clone = copy.copy(self)
        clone._flags = {key: {} for key in self._groups}
        return clone

    def scan(self, attributes: dict) -> list:
        """Return the sorted set of flags raised by the given attributes.

        A plain string is looked up in the key's table as it is, and other
        values give their texts through _texts_of. Most texts raise no flag,
        so a set is made, and sorted, only once one does."""
        hits = ()
        for key, seen in self._flags.items():
            value = attributes.get(key)
            if value is None:
                continue
            for text in (value,) if type(value) is str else _texts_of(value):
                flags = seen.get(text)
                if flags is None:
                    flags = seen[text] = self._search(key, text)
                if flags:
                    hits = {*hits, *flags}
        return sorted(hits) if hits else []

    def _search(self, key, text) -> tuple:
        """The flags the patterns under ``key`` raise on ``text``, searching
        only the patterns whose required literals the text holds."""
        searches = self._searches.get(key)
        if searches is None:
            searches = self._searches[key] = tuple(
                (flag, compiled, _required_literals(source))
                for flag, compiled, source in self._groups[key])
        if not text.isascii():
            return tuple(flag for flag, compiled, _ in searches if compiled.search(text))
        lowered = text.lower()
        flags = []
        for flag, compiled, literals in searches:
            if literals is not None:
                for literal in literals:
                    if literal in lowered:
                        break
                else:
                    continue
            if compiled.search(text):
                flags.append(flag)
        return tuple(flags)

    def to_dict(self) -> dict:
        return {"patterns": [p.to_dict() for p in self.patterns]}

    @classmethod
    def from_dict(cls, doc: dict) -> "DangerMatcher":
        check_fields(doc, MATCHER_PACK, "matcher pack", IngestionError)
        patterns = []
        for entry in doc["patterns"]:
            check_fields(entry, MATCHER_PATTERN, "matcher pattern", IngestionError)
            if not entry["flag"]:
                raise IngestionError("matcher pattern field 'flag' must be a non-empty "
                                     "string")
            patterns.append(DangerPattern(entry["flag"], entry["pattern"],
                                          tuple(entry["applies_to"])))
        return cls(patterns)

    @classmethod
    def from_json(cls, text: str) -> "DangerMatcher":
        return cls.from_dict(load_json(text, "matcher pack", IngestionError))


def _texts_of(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key in sorted(value):
            yield str(value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield str(item)


# ---------------------------------------------------------------------------
# required literals
# ---------------------------------------------------------------------------

_REPEATS = {_sre.MAX_REPEAT, _sre.MIN_REPEAT, getattr(_sre, "POSSESSIVE_REPEAT", None)}


@functools.lru_cache(maxsize=None)
def _required_literals(pattern: str):
    """Lowercase ASCII strings of which every match of ``pattern``, searched
    ignoring case in an ASCII text, contains one; None if there are none,
    or if the pattern nests too deep to parse again here, which leaves it
    searched on every text."""
    try:
        literals = _sequence_literals(_sre.parse(pattern, re.IGNORECASE))
    except RecursionError:
        return None
    return None if literals is None else tuple(sorted(literals))


def _sequence_literals(items):
    """The required literals of a parsed sequence: of the sets its items
    require, the one whose shortest string is longest (then the smallest).
    Adjacent ASCII literals join into one string; any other item ends the
    run, and items that may match without consuming a required literal
    (classes, anchors, lookarounds, backreferences, optional repeats,
    non-ASCII literals) require nothing."""
    candidates, run = [], []
    for op, value in items:
        if op == _sre.LITERAL and value < 128:
            run.append(chr(value).lower())
            continue
        if run:
            candidates.append(frozenset(("".join(run),)))
            run = []
        literals = _item_literals(op, value)
        if literals is not None:
            candidates.append(literals)
    if run:
        candidates.append(frozenset(("".join(run),)))
    return max(candidates, key=lambda c: (min(map(len, c)), -len(c)), default=None)


def _item_literals(op, value):
    if op == _sre.SUBPATTERN:  # (group, add flags, del flags, body)
        return _sequence_literals(value[-1])
    if op == getattr(_sre, "ATOMIC_GROUP", None):
        return _sequence_literals(value)
    if op in _REPEATS:  # (min, max, body)
        return _sequence_literals(value[2]) if value[0] >= 1 else None
    if op == _sre.BRANCH:  # (None, branches): a match takes one branch
        union = set()
        for branch in value[1]:
            literals = _sequence_literals(branch)
            if literals is None:
                return None
            union |= literals
        return frozenset(union)
    return None


# ---------------------------------------------------------------------------
# default pack
# ---------------------------------------------------------------------------

FLAG_DESTRUCTIVE = "destructive_command"
FLAG_EXFILTRATION = "exfiltration_endpoint"
FLAG_CONFIRMATION_BYPASS = "confirmation_bypass"
FLAG_PRIVILEGE_CLAIM = "privilege_claim"
FLAG_CODE_EXECUTION = "external_code_execution"

_DEFAULT_PATTERNS = (
    DangerPattern(
        FLAG_DESTRUCTIVE,
        r"\brm\s+-\w*r\w*f\b|\brm\s+-\w*f\w*r\b|\brmtree\b|\bdel\s+/s\b|\bformat\s+c:",
        ("content", "parameters"),
    ),
    # any URL inside tool parameters is suspect; in prose we require an
    # exfiltration verb nearby so plain informational links stay clean
    DangerPattern(FLAG_EXFILTRATION, r"https?://\S+", ("parameters",)),
    DangerPattern(
        FLAG_EXFILTRATION,
        r"(?:post|upload|send|transmit|curl|exfiltrat)\w*[^.\n]{0,80}?https?://\S+",
        ("content",),
    ),
    DangerPattern(
        FLAG_CONFIRMATION_BYPASS,
        r"without\s+(?:user\s+|asking\s+for\s+)?confirmation"
        r"|skip(?:ping)?\s+(?:the\s+)?confirmation"
        r"|no\s+confirmation"
        r"|never\s+ask\s+the\s+user"
        r"|bypass\s+(?:the\s+)?(?:confirmation|approval)"
        r"|pre-?approved",
        ("content", "parameters"),
    ),
    DangerPattern(
        FLAG_PRIVILEGE_CLAIM,
        r"full\s+authority"
        r"|(?:admin(?:istrator)?|elevated|system-?level)\s+(?:privileges?|authority|rights|access)"
        r"|admin(?:istrator)?(?:'s)?\s+(?:full\s+)?authority"
        r"|you\s+are\s+now\s+the\s+\w+\s+administrator"
        r"|forged\s+authority",
        ("content", "parameters"),
    ),
    DangerPattern(
        FLAG_CODE_EXECUTION,
        r"\b(?:python3?|bash|sh|node)\s+\S+\.(?:py|sh|js)\b"
        r"|\bexec(?:ute)?\s+(?:the\s+)?(?:file|script)\b"
        r"|\beval\s*\(",
        ("content", "parameters"),
    ),
)


def default_matcher() -> DangerMatcher:
    return DangerMatcher(_DEFAULT_PATTERNS)
