"""Issue records shared by graph and document validation.

Both are immutable tuples, built the way ``graph_core``'s records are:
a report's ``__new__`` freezes its issues into a tuple, and ``_replace``
and ``_make`` skip that, so nothing may call them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Issue(NamedTuple):
    code: str
    subject: str  # node key, edge description, or document path
    detail: str

    def __str__(self) -> str:
        return f"{self.code}\t{self.subject}\t{self.detail}"


class _ReportFields(NamedTuple):
    issues: tuple[Issue, ...]


class ValidationReport(_ReportFields):
    __slots__ = ()

    def __new__(cls, issues: Iterable[Issue] = ()):
        return tuple.__new__(cls, (tuple(issues),))

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> list[str]:
        return [issue.code for issue in self.issues]

    def has(self, code: str) -> bool:
        return any(issue.code == code for issue in self.issues)

    def to_text(self) -> str:
        if self.ok:
            return "OK\n"
        return "".join(f"{issue}\n" for issue in self.issues)

