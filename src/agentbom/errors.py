"""Exception types raised while building or auditing agent graphs."""

from __future__ import annotations


class AgentBomError(Exception):
    """Base class for every error this package raises on purpose."""


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

class GraphError(AgentBomError):
    """Base class for graph construction and validation failures."""


class DuplicateIdError(GraphError):
    """An element id is already taken by a node or an edge."""


class UnknownKindError(GraphError):
    """A node or edge kind name is outside the closed kind sets."""


class AttributeSchemaError(GraphError):
    """An attribute key or value does not fit the registered schema."""


class MissingTraceIdError(GraphError):
    """A runtime node is missing its trace_id or timestamp."""


class UnknownAgentError(GraphError):
    """A runtime node names an agent_id absent from the agent registry."""


class DanglingEndpointError(GraphError):
    """An edge endpoint names a node that is not in the graph."""


class EndpointKindError(GraphError):
    """An edge connects node kinds its edge kind does not permit."""


class FrozenGraphError(GraphError):
    """An append was attempted on a graph already frozen by assembly."""


class GraphDocumentError(GraphError):
    """A serialized graph, or one of its elements, does not fit its field
    table: a field is missing, mistyped or unknown."""


class GraphValidationError(GraphError):
    """A loaded graph failed whole-graph validation.

    Carries the violation list so callers can report every problem at once;
    the message quotes the first three and counts the rest.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations[:3])
        more = len(self.violations) - 3
        super().__init__(f"graph failed validation: {lines}"
                         + (f"; and {more} more" if more > 0 else ""))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

class IngestionError(AgentBomError):
    """Base class for manifest and trace ingestion failures."""


class ManifestParseError(IngestionError):
    """The capability manifest is malformed or self-contradictory."""


class TraceParseError(IngestionError):
    """A trace event is malformed or uses an unknown event type."""


class UnresolvedRefError(IngestionError):
    """An event reference cannot be resolved to an allowed earlier event."""


class OutOfOrderTimestampError(IngestionError):
    """The event stream is not sorted by timestamp."""


# ---------------------------------------------------------------------------
# rule engine
# ---------------------------------------------------------------------------

class RuleError(AgentBomError):
    """Base class for audit rule definition and loading failures."""


class RulePackError(RuleError):
    """A rule pack document is malformed."""


class PredicateError(RuleError):
    """A predicate document is malformed or uses an unknown operator."""
