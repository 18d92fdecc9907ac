"""Reconstruct LLM-agent executions as attributed graphs and audit them.

The pipeline: parse a capability manifest and a normalized event trace
(ingestion), assemble them into a two-layer graph (graph, schema), count
the paths content flows along it forward in time (traversal), and
adjudicate audit rules that pair a backward provenance question with a
forward impact one (rules, predicates).
Deterministic fixtures live in scenarios; DOT rendering in dot; the CLI
in cli.
"""

from .errors import (
    AgentBomError,
    GraphError,
    GraphValidationError,
    IngestionError,
    RuleError,
)
from .graph import AgentBomGraph, AgentDescriptor, Edge, Node, Violation
from .ingestion import (
    CapabilityManifest,
    TraceEvent,
    assemble,
    extract_static,
    parse_manifest,
    parse_manifest_json,
    parse_trace_jsonl,
)
from .matchers import DangerMatcher, default_matcher
from .rules import (
    AuditReport,
    AuditRule,
    Finding,
    audit,
    builtin_rules,
    dump_rules,
    load_rules,
)
from .scenarios import SCENARIO_IDS, Fixture, generate
from .schema import EdgeFamily, EdgeKind, Flow, Layer, NodeKind
from .traversal import AuditPath, PathSpec, Trace, trace
from .dot import finding_to_dot, to_dot

__version__ = "0.1.0"

__all__ = [
    "AgentBomError",
    "AgentBomGraph",
    "AgentDescriptor",
    "AuditPath",
    "AuditReport",
    "AuditRule",
    "CapabilityManifest",
    "DangerMatcher",
    "Edge",
    "EdgeFamily",
    "EdgeKind",
    "Finding",
    "Fixture",
    "Flow",
    "GraphError",
    "GraphValidationError",
    "IngestionError",
    "Layer",
    "Node",
    "NodeKind",
    "PathSpec",
    "RuleError",
    "SCENARIO_IDS",
    "Trace",
    "TraceEvent",
    "Violation",
    "assemble",
    "audit",
    "builtin_rules",
    "default_matcher",
    "dump_rules",
    "extract_static",
    "finding_to_dot",
    "generate",
    "load_rules",
    "parse_manifest",
    "parse_manifest_json",
    "parse_trace_jsonl",
    "to_dot",
    "trace",
    "__version__",
]
