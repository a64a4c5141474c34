"""Label normalization and extraction-consistency scoring.

Matching is deliberately strict: exact equality on normalized labels,
greedy one-to-one, no fuzzy credit. Known spelling variants belong in
the alias table (a ``variant = canonical`` config file), not in code.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import ArityError

_BRACKETED = re.compile(r"\([^)]*\)|\[[^\]]*\]")
_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def _base_normalize(name: str) -> str:
    text = unicodedata.normalize("NFKC", name).casefold()
    text = _BRACKETED.sub(" ", text)
    text = _NON_ALNUM.sub(" ", text)
    return " ".join(text.split())


def load_aliases(path: Path | str) -> dict[str, str]:
    """Parse a ``variant = canonical`` alias table; both sides are normalized."""
    table: dict[str, str] = {}
    for i, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected 'variant = canonical'")
        variant, canonical = (part.strip() for part in line.split("=", 1))
        table[_base_normalize(variant)] = _base_normalize(canonical)
    return table


@lru_cache(maxsize=1)
def default_aliases() -> Mapping[str, str]:
    # beside the module, not through importlib.resources: see seo.default_lexicon
    return load_aliases(Path(__file__).with_name("data") / "aliases.txt")


def normalize_label(name: str, aliases: Mapping[str, str] | None = None) -> str:
    """Lowercased, punctuation-stripped, whitespace-collapsed label.

    Bracketed qualifiers are dropped, Unicode is NFKC-normalized, and the
    optional alias table maps known variants to their canonical form.
    """
    base = _base_normalize(name)
    if aliases:
        return aliases.get(base, base)
    return base


def label_slug(name: str) -> str:
    """Normalized label with hyphens, safe for node id derivation."""
    return _base_normalize(name).replace(" ", "-")


class MatchResult(NamedTuple):
    true_positives: int
    false_positives: int
    false_negatives: int
    matched: tuple[tuple[str, str], ...]  # (reference name, candidate name)
    unmatched_reference: tuple[str, ...]
    unmatched_candidate: tuple[str, ...]


def _name_map(names: Iterable[str], aliases: Mapping[str, str] | None) -> dict[str, str]:
    """Normalized label -> the first name, in sorted order, that has it."""
    table: dict[str, str] = {}
    for name in sorted(set(names)):
        table.setdefault(normalize_label(name, aliases), name)
    return table


def _match(ref_map: dict[str, str], cand_map: dict[str, str]) -> MatchResult:
    """``match_failure_modes`` over two ``_name_map`` tables."""
    shared = sorted(ref_map.keys() & cand_map.keys())
    matched = tuple((ref_map[key], cand_map[key]) for key in shared)
    unmatched_ref = tuple(ref_map[key] for key in sorted(ref_map.keys() - cand_map.keys()))
    unmatched_cand = tuple(cand_map[key] for key in sorted(cand_map.keys() - ref_map.keys()))
    return MatchResult(
        true_positives=len(shared),
        false_positives=len(unmatched_cand),
        false_negatives=len(unmatched_ref),
        matched=matched,
        unmatched_reference=unmatched_ref,
        unmatched_candidate=unmatched_cand,
    )


def match_failure_modes(
    reference: Iterable[str],
    candidate: Iterable[str],
    aliases: Mapping[str, str] | None = None,
) -> MatchResult:
    """Greedy one-to-one exact matching over normalized labels."""
    return _match(_name_map(reference, aliases), _name_map(candidate, aliases))


def f1(match: MatchResult) -> tuple[float, float, float]:
    """(precision, recall, f1) rounded to 4 decimals; zero denominators score 0."""
    tp, fp, fn = match.true_positives, match.false_positives, match.false_negatives
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (round(precision, 4), round(recall, 4), round(score, 4))


class PairScore(NamedTuple):
    left: str
    right: str
    precision: float
    recall: float
    f1: float


class ConsistencyReport(NamedTuple):
    mode: str  # "within_agent" | "cross_agent"
    fm_precision: float
    fm_recall: float
    fm_f1: float
    fm_f1_variance: float
    method_alternative_recall: float | None
    run_digests: tuple[str, ...]
    comparisons: tuple[PairScore, ...]
    warnings: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        """Plain-data form of the report: an object per member, and per comparison."""
        return {**self._asdict(), "comparisons": [pair._asdict() for pair in self.comparisons]}


def _extraction(
    run: object, aliases: Mapping[str, str] | None
) -> tuple[dict[str, str], dict[str, str]]:
    """A document's failure-mode and method-alternative names, each as a ``_name_map``."""
    from .seo import SeoDocument  # late import: metrics stays importable on its own

    if not isinstance(run, SeoDocument):
        raise TypeError(f"cannot compare {type(run).__name__}, only an SeoDocument")
    steps = run.protocol.steps if run.protocol is not None else ()
    failure_modes = [claim.name for step in steps for claim in step.failure_modes]
    alternatives = [claim.name for claim in run.method_alternatives or ()]
    return _name_map(failure_modes, aliases), _name_map(alternatives, aliases)


def compare_extractions(
    runs: list,
    reference: object | None = None,
    aliases: Mapping[str, str] | None = None,
) -> ConsistencyReport:
    """Score extraction consistency across runs, each an ``SeoDocument``.

    With a reference, each run is scored against it (cross-agent mode);
    without one, all run pairs are scored against each other
    (within-agent mode). Two identical empty extractions count as
    perfect agreement but add a warning, since vacuous agreement is
    cheap.

    Raises:
        ArityError: fewer than two comparable inputs.
        TypeError: a run or the reference is not an ``SeoDocument``.
    """
    if reference is not None:
        if len(runs) < 1:
            raise ArityError("cross-agent comparison needs at least one run")
        mode = "cross_agent"
    else:
        if len(runs) < 2:
            raise ArityError("within-agent comparison needs at least two runs")
        mode = "within_agent"
    from .seo import serialize_seo

    extracted = [_extraction(run, aliases) for run in runs]
    if reference is not None:
        ref = _extraction(reference, aliases)
        pairs = [("reference", f"run{i}", ref, run) for i, run in enumerate(extracted)]
    else:
        pairs = [
            (f"run{i}", f"run{j}", extracted[i], extracted[j])
            for i in range(len(runs))
            for j in range(i + 1, len(runs))
        ]

    warnings: list[str] = []
    scores: list[PairScore] = []
    ma_recalls: list[float] = []
    any_ma = False
    for left_name, right_name, (left_fm, left_ma), (right_fm, right_ma) in pairs:
        if not left_fm and not right_fm:
            scores.append(PairScore(left_name, right_name, 1.0, 1.0, 1.0))
            warnings.append(f"{left_name}/{right_name}: both extractions empty")
        else:
            p, r, s = f1(_match(left_fm, right_fm))
            scores.append(PairScore(left_name, right_name, p, r, s))
        if left_ma or right_ma:
            any_ma = True
            _, ma_recall, _ = f1(_match(left_ma, right_ma))
            ma_recalls.append(ma_recall)

    n = len(scores)
    mean_f1 = sum(s.f1 for s in scores) / n
    variance = sum((s.f1 - mean_f1) ** 2 for s in scores) / n
    return ConsistencyReport(
        mode=mode,
        fm_precision=round(sum(s.precision for s in scores) / n, 4),
        fm_recall=round(sum(s.recall for s in scores) / n, 4),
        fm_f1=round(mean_f1, 4),
        fm_f1_variance=round(variance, 6),
        method_alternative_recall=(
            round(sum(ma_recalls) / len(ma_recalls), 4) if any_ma else None
        ),
        run_digests=tuple(hashlib.sha256(serialize_seo(run)).hexdigest() for run in runs),
        comparisons=tuple(scores),
        warnings=tuple(warnings),
    )
