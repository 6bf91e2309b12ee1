"""Similarity analyses between a driver bug report and candidate issues.

Four orthogonal signals: token-level code similarity between the driver
repository and a candidate's fix patch, plus overlap of dependencies,
Android permissions, and Android UI elements. Each signal is only
applicable when both sides actually have something to compare; callers
get that distinction through :class:`SimilarityVector.applicable`.

Every candidate is compared against the same driver, so the driver side
is prepared once per run (:class:`Driver`), and the dependency,
permission and UI factors, which depend on a candidate's repository
alone, once per candidate repository (:func:`repo_similarity`).
"""

from __future__ import annotations

import dataclasses
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, List, Optional, Sequence

from . import extract
from .corpus.models import IssueDocument, Patch, RepoSnapshot, file_kind

DEFAULT_MIN_MATCH_LEN = 9

FACTOR_CODE = "code"
FACTOR_DEPENDENCY = "dependency"
FACTOR_PERMISSION = "permission"
FACTOR_UI = "ui"


def overlap_coefficient(xs: AbstractSet, ys: AbstractSet) -> float:
    """Szymkiewicz-Simpson coefficient; 0.0 when either set is empty."""
    if not xs or not ys:
        return 0.0
    return len(xs & ys) / min(len(xs), len(ys))


_UNMARKED = re.compile(b"\x00+")
_HITS = re.compile(b"\x01+")


def _windows(s: str, runs, length: int):
    """Length-``length`` windows of ``s`` inside the given unmarked runs,
    with their start positions, in ascending order."""
    return [(i, s[i : i + length]) for lo, hi in runs for i in range(lo, hi - length + 1)]


def _greedy_tiles(a: str, b: str, min_match_len: int):
    """Greedy string tiling: repeatedly take the longest common unmarked
    substring, ties resolved in ascending (i, j) order within a round.

    Each round binary-searches the match length L: a common unmarked
    window of length L implies one of every shorter length, and no round
    finds a longer match than the round before. Once L is the longest,
    every pair of equal unmarked L-windows is a maximal match.
    """
    marked_a = bytearray(len(a))
    marked_b = bytearray(len(b))
    tiles = []
    longest = min(len(a), len(b))
    while longest >= min_match_len:
        runs_a = [r.span() for r in _UNMARKED.finditer(marked_a)]
        runs_b = [r.span() for r in _UNMARKED.finditer(marked_b)]

        def common(length):
            in_b = {w for _, w in _windows(b, runs_b, length)}
            return not in_b.isdisjoint(w for _, w in _windows(a, runs_a, length))

        lo, hi = min_match_len, longest
        if not common(lo):
            break
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if common(mid):
                lo = mid
            else:
                hi = mid - 1
        starts_b = defaultdict(list)
        for j, w in _windows(b, runs_b, lo):
            starts_b[w].append(j)
        tile = b"\x01" * lo
        for i, w in _windows(a, runs_a, lo):
            for j in starts_b.get(w, ()):
                # an earlier tile this round may have occluded this match
                if marked_a.find(1, i, i + lo) != -1 or marked_b.find(1, j, j + lo) != -1:
                    continue
                marked_a[i : i + lo] = tile
                marked_b[j : j + lo] = tile
                tiles.append((i, j, lo))
        # every match of this length is now tiled or occluded
        longest = lo - 1
    return tiles


def gst_similarity(a: str, b: str, *, min_match_len: int = DEFAULT_MIN_MATCH_LEN) -> float:
    """Similarity of two token streams, strs as :func:`extract.tokenize_code`
    returns them (or tuples): 2*coverage / (len(a) + len(b))."""
    if min_match_len < 1:
        raise ValueError("min_match_len must be >= 1")
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    covered = sum(length for _, _, length in _greedy_tiles(a, b, min_match_len))
    return 2.0 * covered / (len(a) + len(b))


def _shared_cover(windows: Sequence[str], other: AbstractSet[str], length: int) -> int:
    """Positions of a stream, given as its ``length``-windows in order,
    that lie inside some window also in ``other``."""
    hits = bytes(map(other.__contains__, windows))
    covered = end = 0
    for run in _HITS.finditer(hits):
        stop = run.end() + length - 1
        covered += stop - max(run.start(), end)
        end = stop
    return covered


def _all_windows(s: str, length: int) -> List[str]:
    return [s[i : i + length] for i in range(len(s) - length + 1)]


class DriverCode:
    """The driver's Java files, prepared once per run for
    :func:`code_similarity`: their token streams from
    :func:`extract.tokenize_code`, and the ``min_match_len``-windows of
    each file as a list and a set.

    Only read after construction, so candidates share it as it is."""

    def __init__(self, kinds: Iterable[str], min_match_len: int):
        if min_match_len < 1:
            raise ValueError("min_match_len must be >= 1")
        self.min_match_len = min_match_len
        self.kinds = list(kinds)
        self.windows = [_all_windows(s, min_match_len) for s in self.kinds]
        self.window_sets = [set(w) for w in self.windows]


def code_similarity(driver: DriverCode, patch: Patch) -> Optional[float]:
    """Best token similarity between any driver source file and any file
    touched by the patch, or None when either side has nothing to compare.

    Identifier texts are abstracted to their token kind. Patch entries
    without fetched content can't be tokenized and are skipped.

    Every tile is made of windows of ``min_match_len`` tokens that both
    streams contain, so the positions of either stream inside such shared
    windows bound the pair's coverage. Pairs are scored in descending
    order of that bound until it is no better than the best score so far,
    which leaves the max unchanged.
    """
    patch_streams = [
        extract.tokenize_code(modified.new_content)
        for modified in patch.files
        if file_kind(modified.path) == "java" and modified.new_content is not None
    ]
    if not driver.kinds or not patch_streams:
        return None
    m = driver.min_match_len
    patch_windows = [_all_windows(s, m) for s in patch_streams]
    patch_sets = [set(w) for w in patch_windows]
    pairs = []
    for d, (d_windows, d_set) in enumerate(zip(driver.windows, driver.window_sets)):
        for p, patch_stream in enumerate(patch_streams):
            # gst_similarity of the pair is at most `bound`
            total = len(driver.kinds[d]) + len(patch_stream)
            if not total:
                bound = 1.0
            else:
                cover = min(
                    _shared_cover(d_windows, patch_sets[p], m),
                    _shared_cover(patch_windows[p], d_set, m),
                )
                bound = 2.0 * cover / total
            pairs.append((bound, d, p))
    pairs.sort(reverse=True)
    best = 0.0
    for most, d, p in pairs:
        if most <= best:
            break
        best = max(best, gst_similarity(driver.kinds[d], patch_streams[p], min_match_len=m))
    return best


@dataclass(frozen=True)
class SimilarityVector:
    """Per-factor similarity in [0, 1]; a factor outside ``applicable``
    carries 0.0 and means "nothing to compare", not "compared and failed"."""

    code: float = 0.0
    dependency: float = 0.0
    permission: float = 0.0
    ui: float = 0.0
    applicable: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class Driver:
    """The driver side of every comparison in one run, prepared once and
    shared read-only by all candidates: the report thread stemmed and
    indexed for mentions, the repository's facts, and its Java files."""

    thread: extract.ThreadIndex
    context: extract.RepoContext
    code: DriverCode

    @classmethod
    def prepare(
        cls,
        issue: IssueDocument,
        snapshot: RepoSnapshot,
        *,
        min_match_len: int,
    ) -> "Driver":
        return cls(
            thread=extract.ThreadIndex(issue),
            context=extract.build_repo_context(snapshot),
            code=DriverCode(extract.code_kinds(snapshot).values(), min_match_len),
        )


def _mention_widened(driver: Driver, declared: AbstractSet[str], vocabulary) -> set:
    """The driver's declared set widened by candidate-vocabulary terms
    mentioned in the report thread."""
    return set(declared) | extract.extract_mentions(driver.thread, vocabulary)


def repo_similarity(driver: Driver, candidate: extract.RepoContext) -> SimilarityVector:
    """The dependency, permission and UI factors of one candidate
    repository, which every candidate from that repository shares.

    The driver's sets are widened with terms from the candidate's
    declared vocabulary that the report text mentions, so a report that
    names a library counts as depending on it even if the driver project
    never declares it.
    """
    applicable = set()
    ctx = driver.context
    dependency = 0.0
    cand_deps = {d.canonical for d in candidate.dependencies}
    driver_deps = _mention_widened(
        driver,
        {d.canonical for d in ctx.dependencies},
        {d.canonical: d.artifact for d in candidate.dependencies},
    )
    if driver_deps and cand_deps:
        dependency = overlap_coefficient(driver_deps, cand_deps)
        applicable.add(FACTOR_DEPENDENCY)

    permission = 0.0
    ui = 0.0
    if ctx.is_android and candidate.is_android:
        cand_perms = candidate.permissions
        permission = overlap_coefficient(
            _mention_widened(driver, ctx.permissions, cand_perms), cand_perms
        )
        applicable.add(FACTOR_PERMISSION)
        cand_ui = candidate.ui_elements
        ui = overlap_coefficient(_mention_widened(driver, ctx.ui_elements, cand_ui), cand_ui)
        applicable.add(FACTOR_UI)

    return SimilarityVector(
        dependency=dependency,
        permission=permission,
        ui=ui,
        applicable=frozenset(applicable),
    )


def similarity_vector(
    driver: Driver, repo: SimilarityVector, patch: Optional[Patch]
) -> SimilarityVector:
    """One candidate's vector across all factors: its repository's
    factors (:func:`repo_similarity`) plus the code similarity of its
    fix patch against the driver's sources."""
    best = None if patch is None else code_similarity(driver.code, patch)
    if best is None:
        return repo
    return dataclasses.replace(repo, code=best, applicable=repo.applicable | {FACTOR_CODE})
