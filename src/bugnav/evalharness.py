"""Offline evaluation: Prec@k and MRR over labeled candidate lists.

A dataset snapshot carries, per driver issue, the raw platform-ordered
candidates with their factor vectors and the relevance labels, which
is everything needed to score a weight configuration without network
access.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from .corpus.models import IssueRef
from .errors import ValidationError, checked_field, read_json_lines
from .ranking import FactorVector, WeightConfig, score_order

PRECISION_CUTOFFS = (1, 3, 5)


@dataclass(frozen=True)
class LabeledCandidate:
    ref: IssueRef
    factors: FactorVector


@dataclass(frozen=True)
class EvalEntry:
    driver: IssueRef
    candidates: List[LabeledCandidate]
    relevant: frozenset

    def __post_init__(self):
        refs = {c.ref for c in self.candidates}
        stray = set(self.relevant) - refs
        if stray:
            raise ValidationError(
                f"relevance labels outside the candidate list: {sorted(map(str, stray))}"
            )


@dataclass(frozen=True)
class SystemMetrics:
    prec_at: Dict[int, float]
    mrr: float


@dataclass(frozen=True)
class EvalReport:
    per_system: Dict[str, SystemMetrics]
    num_relevant: int

    @property
    def mrr(self) -> float:
        return self.per_system["reranked"].mrr

    def to_dict(self) -> dict:
        return {
            "num_relevant": self.num_relevant,
            "per_system": {
                name: {
                    "prec_at": {str(k): v for k, v in metrics.prec_at.items()},
                    "mrr": metrics.mrr,
                }
                for name, metrics in self.per_system.items()
            },
        }

    def format_table(self) -> str:
        header = f"{'system':<12}" + "".join(f"{f'Prec@{k}':>9}" for k in PRECISION_CUTOFFS)
        header += f"{'MRR':>9}"
        lines = [header]
        for name, metrics in self.per_system.items():
            row = f"{name:<12}"
            row += "".join(f"{metrics.prec_at[k]:>9.3f}" for k in PRECISION_CUTOFFS)
            row += f"{metrics.mrr:>9.3f}"
            lines.append(row)
        return "\n".join(lines)


@dataclass
class EvalDataset:
    entries: List[EvalEntry] = field(default_factory=list)

    def save(self, path) -> None:
        lines = []
        for entry in self.entries:
            record = {
                "driver": str(entry.driver),
                "candidates": [
                    {"ref": str(c.ref), "factors": c.factors.to_dict()}
                    for c in entry.candidates
                ],
                "relevant": sorted(str(r) for r in entry.relevant),
            }
            lines.append(json.dumps(record, sort_keys=True))
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EvalDataset":
        """Entries of a JSONL file, one object per line; blank lines are
        skipped. A file that cannot be read, or a malformed line, raises
        ValidationError naming the file and the line."""
        return cls(entries=read_json_lines(path, "dataset", _entry))


def _entry(record) -> EvalEntry:
    """One dataset line as an entry; ValueError or ValidationError when it
    is malformed."""
    if not isinstance(record, dict):
        raise ValidationError(f"expected a JSON object, not {record!r:.80}")
    candidates = []
    for c in checked_field(record, "candidates", list, "entry"):
        factors = FactorVector.from_dict(checked_field(c, "factors", dict, "candidate", {}))
        ref = IssueRef.parse(checked_field(c, "ref", str, "candidate"))
        candidates.append(LabeledCandidate(ref=ref, factors=factors))
    return EvalEntry(
        driver=IssueRef.parse(checked_field(record, "driver", str, "entry")),
        candidates=candidates,
        relevant=frozenset(
            IssueRef.parse(r) for r in checked_field(record, "relevant", list, "entry", items=str)
        ),
    )


def precision_at_k(ranked: Sequence[IssueRef], relevant: AbstractSet, k: int) -> float:
    """Fraction of the top k that is relevant. An empty result list
    counts as precision 1; a short but non-empty list still divides
    by k."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not ranked:
        return 1.0
    hits = sum(1 for ref in ranked[:k] if ref in relevant)
    return hits / k


def mrr_from_places(places: Sequence[Optional[int]]) -> float:
    """Mean of 1/place over the queries, in their order; a query whose
    list holds no relevant item (None) contributes 0. The one MRR
    arithmetic, for evaluate() and the tuner."""
    if not places:
        raise ValidationError("MRR needs at least one query")
    total = 0.0
    for place in places:
        if place is not None:
            total += 1.0 / place
    return total / len(places)


def mean_reciprocal_rank(
    entries: Sequence[Tuple[Sequence[IssueRef], AbstractSet]],
) -> float:
    """Mean of 1/position of the first relevant item per query; a query
    with no relevant item contributes 0."""
    return mrr_from_places(
        [
            next((place for place, ref in enumerate(ranked, start=1) if ref in relevant), None)
            for ranked, relevant in entries
        ]
    )


def rerank_entry(entry: EvalEntry, weights: WeightConfig) -> List[IssueRef]:
    """Candidate refs reordered by score, ties keeping raw order."""
    order = score_order([c.factors for c in entry.candidates], weights)
    return [entry.candidates[i].ref for i, _ in order]


def _ranked_pairs(dataset: EvalDataset, weights: WeightConfig):
    """(re-ranked refs, relevant refs) for each entry."""
    return [(rerank_entry(entry, weights), entry.relevant) for entry in dataset.entries]


def _system_metrics(pairs) -> SystemMetrics:
    prec = {
        k: sum(precision_at_k(ranked, relevant, k) for ranked, relevant in pairs)
        / len(pairs)
        for k in PRECISION_CUTOFFS
    }
    return SystemMetrics(prec_at=prec, mrr=mean_reciprocal_rank(pairs))


def evaluate(dataset: EvalDataset, weights: WeightConfig) -> EvalReport:
    """Score the raw platform ordering and the re-ranked ordering side
    by side. Pure function of its arguments."""
    if not dataset.entries:
        raise ValidationError("evaluation needs a non-empty dataset")
    raw = [([c.ref for c in entry.candidates], entry.relevant) for entry in dataset.entries]
    return EvalReport(
        per_system={
            "raw_search": _system_metrics(raw),
            "reranked": _system_metrics(_ranked_pairs(dataset, weights)),
        },
        num_relevant=sum(len(entry.relevant) for entry in dataset.entries),
    )
