"""Exception types shared across the package, each stating its exit class as ``exit_code``."""

# exit codes: success, rejected input, usage, I/O failure, violated invariant or missing record
EXIT_OK, EXIT_REJECTED, EXIT_USAGE, EXIT_IO, EXIT_INVARIANT = range(5)


class SkgError(Exception):
    """Base class for package errors."""

    exit_code = EXIT_REJECTED


class InvariantError(SkgError):
    """A graph invariant, a key rule or an argument's range was violated."""

    exit_code = EXIT_INVARIANT


class MalformedKey(InvariantError):
    """Node key failed structural validation (empty part or bad id characters)."""


class TypeConflict(InvariantError):
    """A property merge would change the value kind of an existing property."""


class DanglingEdge(InvariantError):
    """An edge references a node that is not in the graph."""


class CrossSubgraphViolation(InvariantError):
    """Edge spans subgraphs but its type is not marked cross-subgraph."""


class SelectorRefused(InvariantError, KeyError):
    """A convergence selector names an approved edge, or repeats an earlier one.

    Still a ``KeyError``, as a selector naming no edge is, but its
    message is not quoted.
    """

    __str__ = Exception.__str__


class RegistryMismatch(SkgError):
    """A store line or merge-plan record is malformed, or was written under another registry version."""


class RangeError(InvariantError):
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


class SubgraphMismatch(SkgError):
    """Compile target subgraph disagrees with the document's protocol layer."""


class Rejected(SkgError):
    """A document, or a node a plan merges into, failed validation; carries the full report."""

    def __init__(self, report):
        super().__init__(f"document rejected: {len(report.issues)} issue(s)")
        self.report = report


class ArityError(InvariantError):
    """Too few comparable inputs for a consistency comparison."""
