"""Timing spans around the program's public functions, installed from outside.

The traced run patches module attributes and class methods with wrappers
that record one span per call: an id, the id of the enclosing span, a name,
a start and an end, plus a small tag (which rule, how many results). Spans
stay in memory; per-layer metrics are computed from them after each pass.
``uninstall`` puts every original object back and checks that it did, so
untraced passes never run wrapped code.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from agentbom import graph as graph_mod
from agentbom import ingestion, matchers, predicates
from agentbom import rules as rules_mod
from agentbom.schema import EdgeKind

# Span names are "<layer>.<function>", the layer being the program module.
_MODULE_SPANS = (
    (ingestion, "ingestion", ("parse_manifest_json", "parse_trace_jsonl", "assemble",
                              "extract_static", "normalize_events",
                              "bind_cross_layer")),
    (rules_mod, "rules", ("audit", "locate_entries", "evaluate_rule")),
)
_METHOD_SPANS = (
    (graph_mod.AgentBomGraph, "graph", ("add_node", "add_edge", "validate",
                                        "to_json", "from_json", "digest")),
    (matchers.DangerMatcher, "matchers", ("scan",)),
    (rules_mod.AuditReport, "rules.report", ("to_json",)),
)


def _rule_tag(args, result):
    return {"risk": args[1].risk_id}


def _trace_tag(args, result):
    return {"direction": args[2].direction, "n": len(result)}


def _events_tag(args, result):
    return {"n": len(result)}


def _binding_tag(args, result):
    new_nodes, new_edges = result
    synthesized = {node.node_id for node in new_nodes}
    paired = sum(
        1 for edge in new_edges
        if edge.kind is EdgeKind.SENDS_TO
        and edge.source not in synthesized and edge.target not in synthesized
    )
    return {"paired": paired, "synthesized": len(synthesized)}


_TAGGERS = {
    "rules.locate_entries": _rule_tag,
    "rules.evaluate_rule": _rule_tag,
    "traversal.trace": _trace_tag,
    "ingestion.parse_trace_jsonl": _events_tag,
    "ingestion.bind_cross_layer": _binding_tag,
}


class Tracer:
    """Records nested spans while ``recording`` is set."""

    def __init__(self):
        self.spans: list = []   # [id, parent, name, start, end, tag]; id = index
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original object)

    # -- recording -------------------------------------------------------

    def _timed(self, name, fn):
        tagger = _TAGGERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if tagger is not None:
                span[5] = tagger(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> tuple:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for module, layer, names in _MODULE_SPANS:
            for name in names:
                self._patch(module, name,
                            self._timed(f"{layer}.{name}", getattr(module, name)))
        # trace as rules looks it up, so only audit-driven traversal is timed
        self._patch(rules_mod, "trace",
                    self._timed("traversal.trace", rules_mod.trace))
        for cls, layer, names in _METHOD_SPANS:
            for name in names:
                raw = vars(cls)[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._timed(f"{layer}.{name}", raw.__func__))
                else:
                    wrapped = self._timed(f"{layer}.{name}", raw)
                self._patch(cls, name, wrapped)
        for cls in _predicate_classes():
            self._patch(cls, "evaluate",
                        self._counted("predicates.evaluate", vars(cls)["evaluate"]))

    def uninstall(self) -> None:
        """Restore every patched attribute and verify the originals are back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
            if vars(owner)[attribute] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attribute}")


def _predicate_classes() -> list:
    found, todo = [], [predicates.Predicate]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "evaluate" in vars(cls) and cls is not predicates.Predicate:
            found.append(cls)
    return sorted(found, key=lambda c: c.__name__)


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(spans, counts, result, rule_ids) -> dict:
    """Per-layer values for one pass, keyed by metric name.

    ``result`` holds the pass's artifacts; graph sizes and the counts the
    program records itself (findings, paths reported, paths explored per
    rule) come from them. Every metric is present, 0 when its layer did no
    work.
    """
    report = result["report"]
    child_time = defaultdict(float)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[4] - span[3]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    per_rule = defaultdict(float)
    tags = defaultdict(Counter)
    trace_stats_pass = 0.0
    enumerated_in_rules = 0
    for span in spans:
        span_id, parent, name, start, end, tag = span
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child_time[span_id]
        calls[name] += 1
        if tag:
            for key, value in tag.items():
                if isinstance(value, int):
                    tags[name][key] += value
        parent_name = spans[parent][2] if parent >= 0 else ""
        if name == "rules.locate_entries":
            per_rule[(tag["risk"], "locate_s")] += duration
        elif name == "rules.evaluate_rule":
            per_rule[(tag["risk"], "filter_s")] += duration - child_time[span_id]
        elif name == "traversal.trace":
            if parent_name == "rules.evaluate_rule":
                risk = spans[parent][5]["risk"]
                key = "back_trace_s" if tag["direction"] == "backward" else "fwd_trace_s"
                per_rule[(risk, key)] += duration
                enumerated_in_rules += tag["n"]
            elif parent_name == "rules.audit":
                trace_stats_pass += duration

    reported = sum(len(f.back_paths) + len(f.fwd_paths) for f in report.findings)
    out = {
        "ingestion.parse_manifest_json.s": total["ingestion.parse_manifest_json"],
        "ingestion.parse_trace_jsonl.s": total["ingestion.parse_trace_jsonl"],
        "ingestion.extract_static.s": total["ingestion.extract_static"],
        "ingestion.normalize_events.s": total["ingestion.normalize_events"],
        "ingestion.bind_cross_layer.s": total["ingestion.bind_cross_layer"],
        "ingestion.assemble.self_s": self_time["ingestion.assemble"],
        "ingestion.events": tags["ingestion.parse_trace_jsonl"]["n"],
        "ingestion.messages_paired": tags["ingestion.bind_cross_layer"]["paired"],
        "ingestion.endpoints_synthesized":
            tags["ingestion.bind_cross_layer"]["synthesized"],
        "matchers.scan.calls": calls["matchers.scan"],
        "matchers.scan.s": total["matchers.scan"],
        "graph.add_node.calls": calls["graph.add_node"],
        "graph.add_node.s": total["graph.add_node"],
        "graph.add_edge.calls": calls["graph.add_edge"],
        "graph.add_edge.s": total["graph.add_edge"],
        "graph.validate.calls": calls["graph.validate"],
        "graph.validate.s": total["graph.validate"],
        "graph.to_json.s": total["graph.to_json"],
        "graph.from_json.s": total["graph.from_json"],
        "graph.digest.s": total["graph.digest"],
        "graph.nodes": len(result["graph"].nodes),
        "graph.edges": len(result["graph"].edges),
        "graph.bytes": len(result["graph_json"].encode("utf-8")),
        "traversal.trace.calls": calls["traversal.trace"],
        "traversal.trace.s": total["traversal.trace"],
        "traversal.paths": tags["traversal.trace"]["n"],
        "traversal.trace.stats_pass_s": trace_stats_pass,
        "rules.locate_entries.s": total["rules.locate_entries"],
        "rules.evaluate_rule.self_s": self_time["rules.evaluate_rule"],
        "rules.audit.self_s": self_time["rules.audit"],
        "rules.report_to_json.s": total["rules.report.to_json"],
        "rules.findings": len(report.findings),
        "rules.paths_reported": reported,
        "rules.paths_kept_ratio":
            reported / enumerated_in_rules if enumerated_in_rules else 0.0,
    }
    for risk in rule_ids:
        out[f"rules.{risk}.locate_s"] = per_rule[(risk, "locate_s")]
        out[f"rules.{risk}.back_trace_s"] = per_rule[(risk, "back_trace_s")]
        out[f"rules.{risk}.fwd_trace_s"] = per_rule[(risk, "fwd_trace_s")]
        out[f"rules.{risk}.filter_s"] = per_rule[(risk, "filter_s")]
        out[f"rules.{risk}.paths_explored"] = (
            report.stats.get(risk, {}).get("paths_explored", 0))
    out["predicates.evaluate.calls"] = counts["predicates.evaluate"]
    return out


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"


def write_spans(path, spans) -> None:
    """One JSON array per line: id, parent, name, start, end, tag."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
