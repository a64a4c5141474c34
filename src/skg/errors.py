"""Exception types shared across the package."""

from __future__ import annotations


class SkgError(Exception):
    """Base class for package errors."""


class MalformedKey(SkgError):
    """Node key failed structural validation (empty part or bad id characters)."""


class TypeConflict(SkgError):
    """A property merge would change the value kind of an existing property."""


class DanglingEdge(SkgError):
    """An edge references a node that is not in the graph."""


class CrossSubgraphViolation(SkgError):
    """Edge spans subgraphs but its type is not marked cross-subgraph."""


class RegistryMismatch(SkgError):
    """A store line or merge-plan record is malformed, or was written under another registry version."""


class RangeError(SkgError):
    """Numeric argument outside its documented range."""


class SeoParseError(SkgError):
    """Structured extraction document is not syntactically valid.

    ``line`` and ``column`` are 1-based when known, else 0.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownField(SeoParseError):
    """Strict parsing rejected a field name outside the schema."""

    def __init__(self, path: str):
        super().__init__(f"unknown field: {path}")
        self.path = path


class ValueKindMismatch(SeoParseError):
    """A field value has the wrong kind (or a required field is absent)."""

    def __init__(self, path: str, expected: str, got: str):
        super().__init__(f"{path}: expected {expected}, got {got}")
        self.path = path
        self.expected = expected
        self.got = got


class NoHedgeDetected(SkgError):
    """No lexicon entry matched the source phrase."""


class SubgraphMismatch(SkgError):
    """Compile target subgraph disagrees with the document's protocol layer."""


class Rejected(SkgError):
    """A document, or a node a plan merges into, failed validation; carries the full report."""

    def __init__(self, report):
        super().__init__(f"document rejected: {len(report.issues)} issue(s)")
        self.report = report


class ArityError(SkgError):
    """Too few comparable inputs for a consistency comparison."""
