"""Issue-quality metrics, factor normalization, and weighted re-ranking.

A candidate's score is a plain dot product of its normalized factor
vector with a weight vector. The shipped default weights put most of
the mass on the similarity analyses and none on the has-fix and
keyword factors; those stay available for tuning.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .corpus.models import IssueDocument
from .errors import ValidationError
from .similarity import SimilarityVector

QUALITY_KEYWORDS = frozenset(
    {
        "reproduce",
        "defect",
        "crash",
        "error",
        "exception",
        "expected",
        "actual",
        "steps",
        "fix",
    }
)

WORD_COUNT_CAP = 500
COMMENT_COUNT_CAP = 20
KEYWORD_COUNT_CAP = 5

_KEYWORD_TOKEN_RE = re.compile(r"[a-z0-9_]+")


@dataclass(frozen=True)
class QualityMetrics:
    word_count: int
    has_fix_commit: bool
    comment_count: int
    keyword_count: int


# The ranking factors with their shipped default weights, in the order
# score() sums them; FactorVector and WeightConfig both follow it.
FACTORS = (
    ("issue_length", 0.0714),
    ("num_comment", 0.1428),
    ("code", 0.1428),
    ("dep", 0.2142),
    ("perm", 0.2142),
    ("ui", 0.2142),
    ("has_fix", 0.0),
    ("keywords", 0.0),
)


def _per_factor(prefix: str, noun: str, defaults: Sequence[float], upper: float):
    """Class decorator: a frozen dataclass with one float field per
    factor, named ``prefix + factor``, in FACTORS order, read from JSON
    only when every value lies in [0, upper]."""

    def build(cls):
        names = tuple(prefix + name for name, _ in FACTORS)
        cls.__annotations__ = dict.fromkeys(names, float)
        for name, default in zip(names, defaults):
            setattr(cls, name, default)
        cls._names = names
        cls._noun = noun
        cls._upper = upper
        cls._values = operator.attrgetter(*names)
        return dataclass(frozen=True)(cls)

    return build


class _PerFactorRecord:
    """What FactorVector and WeightConfig share."""

    def as_tuple(self) -> Tuple[float, ...]:
        return self._values(self)

    def to_dict(self) -> Dict[str, float]:
        return dict(zip(self._names, self._values(self)))

    @classmethod
    def from_dict(cls, data: Dict[str, float]):
        if not isinstance(data, dict):
            raise ValidationError(f"{cls._noun}s must be a JSON object, not {data!r:.80}")
        unknown = set(data) - set(cls._names)
        if unknown:
            raise ValidationError(f"unknown {cls._noun} names: {sorted(unknown)}")
        values = {}
        upper = cls._upper
        for name, value in data.items():
            try:
                # float() would read "1" as 1.0, and JSON true, a bool and
                # so an int to isinstance(), as 1.0 too
                if type(value) not in (int, float):
                    raise TypeError(value)
                values[name] = number = float(value)
            except (TypeError, OverflowError) as exc:
                raise ValidationError(f"{cls._noun} {name} must be a number: {value!r}") from exc
            # false for NaN too
            if not 0.0 <= number <= upper:
                raise ValidationError(f"{cls._noun} {name} must lie in [0, {upper}]: {value}")
        return cls(**values)


@_per_factor("w_", "weight", [weight for _, weight in FACTORS], math.inf)
class WeightConfig(_PerFactorRecord):
    """One non-negative weight per factor, ``w_<factor>``."""

    def __post_init__(self):
        for name, value in zip(self._names, self.as_tuple()):
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be finite and non-negative: {value}")
        # every score is at most this sum, so finite with it
        if not math.isfinite(sum(self.as_tuple())):
            raise ValidationError("the weights must have a finite sum")


@_per_factor("", "factor", [0.0] * len(FACTORS), 1.0)
class FactorVector(_PerFactorRecord):
    """Normalized factors, one per weight, all in [0, 1]."""


def count_keywords(texts: Iterable[str]) -> int:
    """Total whole-word, case-insensitive keyword occurrences."""
    total = 0
    for text in texts:
        for token in _KEYWORD_TOKEN_RE.findall(text.lower()):
            if token in QUALITY_KEYWORDS:
                total += 1
    return total


def quality_metrics(issue: IssueDocument) -> QualityMetrics:
    """Content-quality signals of a candidate issue.

    Words are counted in the body alone; keywords over body plus
    comments (the title is a search artifact, not report content).
    """
    body = issue.body or ""
    return QualityMetrics(
        word_count=len(body.split()),
        # A pull request is a patch even when its text links none.
        has_fix_commit=bool(issue.patch_refs) or issue.is_pull,
        comment_count=issue.num_comments,
        keyword_count=count_keywords([body, *issue.comments]),
    )


def normalize_factors(metrics: QualityMetrics, sims: SimilarityVector) -> FactorVector:
    """Map raw counts onto [0, 1]; similarity components pass through,
    a non-applicable one (None) as 0.0."""
    return FactorVector(
        issue_length=min(1.0, metrics.word_count / WORD_COUNT_CAP),
        num_comment=min(1.0, metrics.comment_count / COMMENT_COUNT_CAP),
        code=sims.code or 0.0,
        dep=sims.dependency or 0.0,
        perm=sims.permission or 0.0,
        ui=sims.ui or 0.0,
        has_fix=1.0 if metrics.has_fix_commit else 0.0,
        keywords=min(1.0, metrics.keyword_count / KEYWORD_COUNT_CAP),
    )


def _dot(values: Sequence[float], weights: Sequence[float]) -> float:
    """The score arithmetic: the products summed left to right in FACTORS
    order, from 0.0. The tuner folds the same sums term by term, and
    sum() of floats is compensated from Python 3.12 on, so it would not
    round as the fold does."""
    total = 0.0
    for v, w in zip(values, weights):
        total += v * w
    return total


def score(factors: FactorVector, weights: WeightConfig) -> float:
    """Weighted sum of factors."""
    return _dot(factors.as_tuple(), weights.as_tuple())


@dataclass(frozen=True)
class RankInput:
    issue: IssueDocument
    metrics: QualityMetrics
    sims: SimilarityVector
    search_rank: int


@dataclass(frozen=True)
class RankedCandidate(RankInput):
    factors: FactorVector
    score: float
    final_rank: int


def _best_first(scores: Sequence[float]) -> List[int]:
    """Indices of scores in ranking order: score descending, equal scores
    in index order. The one ranking order; rank() sorts by it and the
    tuner counts places in it with _place."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _place(scores: Sequence[float], indices: Sequence[int]) -> int:
    """The 1-based place in _best_first(scores) of the first of indices,
    given ascending, counted without a sort: that index is the first one
    with the highest score among them, and its place is one more than the
    number of higher scores and of equal scores before it."""
    first = max(indices, key=scores.__getitem__)
    top = scores[first]
    return 1 + len([s for s in scores if s > top]) + scores[:first].count(top)


def score_order(factors: Sequence[FactorVector], weights: WeightConfig) -> List[Tuple[int, float]]:
    """(index, score) of each factor vector, best first: score descending,
    equal scores in index order, which callers give in platform order."""
    scores = [score(f, weights) for f in factors]
    return [(i, scores[i]) for i in _best_first(scores)]


def rank(candidates: Sequence[RankInput], weights: WeightConfig) -> List[RankedCandidate]:
    """Order candidates by score, best first; the first element is the
    recommended navigator. Ties keep the platform's search order."""
    seen = {c.search_rank for c in candidates}
    if len(seen) != len(candidates):
        raise ValidationError("candidates must carry distinct search ranks")
    platform = sorted(candidates, key=lambda c: c.search_rank)
    factors = [normalize_factors(cand.metrics, cand.sims) for cand in platform]
    # a shallow copy of the input's fields: asdict would deep-copy each issue
    return [
        RankedCandidate(**vars(platform[i]), factors=factors[i], score=value, final_rank=position)
        for position, (i, value) in enumerate(score_order(factors, weights), start=1)
    ]


# Published rounding: the six weights are fourteenths truncated to four
# decimals, so an on-grid sum lands at 0.9996 rather than 1.
_SIMPLEX_TOLERANCE = 4e-4 + 1e-9


# The factors whose weights the tuner sweeps, and their places in a
# weight tuple. They must be one run of FACTORS: the tuner folds the
# factors before them into one fixed head, and adds those after them,
# the tail, at every grid point.
_SWEPT = ("code", "dep", "perm", "ui")
_SWEPT_AT = tuple([name for name, _ in FACTORS].index(name) for name in _SWEPT)
_HEAD, _TAIL = _SWEPT_AT[0], _SWEPT_AT[-1] + 1
assert _SWEPT_AT == tuple(range(_HEAD, _TAIL)), "the swept factors must be contiguous"


def _first_true(band: range, holds) -> int:
    """The first t of band for which holds(t), or band.stop if none, for
    a holds() that is false and then true along the band. A bisection,
    since a fine step's band is too long to walk."""
    lo, hi = band.start, band.stop
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _grid_totals(base: WeightConfig, grid_step: float) -> range:
    """The totals t, in grid steps, of the swept weights that bring the
    sum of all weights within _SIMPLEX_TOLERANCE of 1."""
    # 1 / grid_step overflows below the smallest normal float, 2**-1022
    if not 2.0**-1022 <= grid_step <= 1.0:
        raise ValidationError("grid_step must be in [2**-1022, 1]")
    fixed = base.w_issue_length + base.w_num_comment
    # no total brings the sum back down; the band below would overflow
    if fixed - 1.0 > _SIMPLEX_TOLERANCE:
        return range(0)
    # the band around (1 - fixed) / grid_step, one total wider on either
    # side for the rounding of the divisions
    lo, hi = ((1.0 - fixed + d) / grid_step for d in (-_SIMPLEX_TOLERANCE, _SIMPLEX_TOLERANCE))
    band = range(max(0, math.ceil(lo) - 1), min(round(1.0 / grid_step), math.floor(hi) + 1) + 1)
    # fixed + t * grid_step does not fall as t grows, so the totals that
    # reach 1 - tolerance and those that pass 1 + tolerance are each a
    # run at the band's end, and the admissible ones lie between them
    start = _first_true(band, lambda t: fixed + t * grid_step - 1.0 >= -_SIMPLEX_TOLERANCE)
    stop = _first_true(band, lambda t: fixed + t * grid_step - 1.0 > _SIMPLEX_TOLERANCE)
    return range(start, max(start, stop))


def grid_size(base: WeightConfig, grid_step: float) -> int:
    """Number of points :func:`tune_weights` searches: C(t + 3, 3) per
    total t, whose sum over t <= b is C(b + 4, 4)."""
    totals = _grid_totals(base, grid_step)
    if not totals:
        return 0
    return math.comb(totals[-1] + 4, 4) - math.comb(totals[0] + 3, 4)


def _multiples(column: List[float], grid_step: float):
    """k -> the products of column with k * grid_step, each list made on
    first use, so that a fine step builds only the multiples it reaches."""
    table = {}

    def at(k: int) -> List[float]:
        products = table.get(k)
        if products is None:
            weight = k * grid_step
            products = table[k] = [v * weight for v in column]
        return products

    return at


def _grid_mrrs(dataset, base: WeightConfig, grid_step: float):
    """(swept tuple, MRR of the re-ranked system) at each grid point, in
    grid order, equal bit for bit to what evaluate() reports.

    The grid is every (w_code, w_dep, w_perm, w_ui) multiple of grid_step
    that sums with the fixed weights to ~1. Four nested loops, over the
    multiples of the first three and the total, walk it in lexicographic
    order without building it, since k * grid_step grows strictly with k.

    A score is _dot's fold. Every query's candidates lie end to end in one
    column per factor. The head is folded once, the code term once per
    w_code and the dep term once per w_dep. The permission and UI products
    take one list per multiple of grid_step, made on first use and kept, so
    a point adds two ready products per candidate. The fixed tail products
    are made once, and a tail column whose products are all zero is left
    out: adding 0.0 moves no score past or onto another. A point folds the
    rest in _dot's order, in one pass each over every query's candidates,
    and reads each query's reciprocal rank from its slice by _place,
    without a sort."""
    from .evalharness import mrr_from_places

    totals = _grid_totals(base, grid_step)
    weights = base.as_tuple()
    rows, queries = [], []
    for entry in dataset.entries:
        relevant = [i for i, c in enumerate(entry.candidates) if c.ref in entry.relevant]
        queries.append((len(rows), len(rows) + len(entry.candidates), relevant))
        rows += [c.factors.as_tuple() for c in entry.candidates]
    columns = [[row[at] for row in rows] for at in range(len(FACTORS))]
    head = [0.0] * len(rows)
    for column, weight in zip(columns[:_HEAD], weights):
        head = [s + v * weight for s, v in zip(head, column)]
    code, dep, perm, ui = columns[_HEAD:_TAIL]
    perm_at, ui_at = _multiples(perm, grid_step), _multiples(ui, grid_step)
    tail = []
    for column, weight in zip(columns[_TAIL:], weights[_TAIL:]):
        products = [v * weight for v in column]
        # NaN is true, so a NaN product keeps its column
        if any(products):
            tail.append(products)

    top = totals[-1] if totals else -1
    for k_code in range(top + 1):
        w_code = k_code * grid_step
        to_code = [s + v * w_code for s, v in zip(head, code)]
        for k_dep in range(top - k_code + 1):
            w_dep = k_dep * grid_step
            to_dep = [s + v * w_dep for s, v in zip(to_code, dep)]
            for k_perm in range(top - k_code - k_dep + 1):
                w_perm = k_perm * grid_step
                perm_terms = perm_at(k_perm)
                used = k_code + k_dep + k_perm
                for total in range(max(used, totals.start), totals.stop):
                    k_ui = total - used
                    # (s + p * w_perm) + u * w_ui, then each tail term: _dot's order
                    scores = [s + p + u for s, p, u in zip(to_dep, perm_terms, ui_at(k_ui))]
                    for products in tail:
                        scores = [s + t for s, t in zip(scores, products)]
                    places = [
                        _place(scores[start:stop], relevant) if relevant else None
                        for start, stop, relevant in queries
                    ]
                    yield (w_code, w_dep, w_perm, k_ui * grid_step), mrr_from_places(places)


def tune_weights(dataset, grid_step: float, *, base: WeightConfig = None) -> WeightConfig:
    """Exhaustive grid search over the similarity weights, keeping the
    quality weights fixed; returns the MRR-maximizing configuration.

    Ties go to the lexicographically smallest weight tuple: max() keeps
    the first of equal MRRs, and the grid ascends. A step too coarse to
    hit the simplex at all returns the base weights.
    """
    if not dataset.entries:
        raise ValidationError("tuning needs a non-empty dataset")
    if base is None:
        base = WeightConfig()
    best = max(_grid_mrrs(dataset, base, grid_step), key=operator.itemgetter(1), default=None)
    if best is None:
        return base
    names = [WeightConfig._names[at] for at in _SWEPT_AT]
    return dataclasses.replace(base, **dict(zip(names, best[0])))
