"""Similarity analyses between a driver bug report and candidate issues.

Four orthogonal signals: token-level code similarity between the driver
repository and a candidate's fix patch, plus overlap of dependencies,
Android permissions, and Android UI elements. Each signal is only
applicable when both sides actually have something to compare; callers
get that distinction through :class:`SimilarityVector.applicable`.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import AbstractSet, Hashable, Optional, Sequence

from . import extract
from .corpus.models import IssueDocument, Patch

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


def _intern(streams):
    """Each stream as a str of one character per token, the same character
    for equal tokens across all of them, so windows hash and compare in C."""
    codes = {}
    return ["".join([codes.setdefault(t, chr(len(codes))) for t in s]) for s in streams]


_UNMARKED = re.compile(b"\x00+")
_HITS = re.compile(b"\x01+")


def _windows(s: str, runs, length: int):
    """Length-``length`` windows of ``s`` inside the given unmarked runs,
    with their start positions, in ascending order."""
    return [(i, s[i : i + length]) for lo, hi in runs for i in range(lo, hi - length + 1)]


def _greedy_tiles(a: Sequence[Hashable], b: Sequence[Hashable], min_match_len: int):
    """Greedy string tiling: repeatedly take the longest common unmarked
    substring, ties resolved in ascending (i, j) order within a round.

    Each round binary-searches the match length L: a common unmarked
    window of length L implies one of every shorter length, and no round
    finds a longer match than the round before. Once L is the longest,
    every pair of equal unmarked L-windows is a maximal match.
    """
    sa, sb = _intern((a, b))
    marked_a = bytearray(len(a))
    marked_b = bytearray(len(b))
    tiles = []
    longest = min(len(a), len(b))
    while longest >= min_match_len:
        runs_a = [r.span() for r in _UNMARKED.finditer(marked_a)]
        runs_b = [r.span() for r in _UNMARKED.finditer(marked_b)]

        def common(length):
            in_b = {w for _, w in _windows(sb, runs_b, length)}
            return not in_b.isdisjoint(w for _, w in _windows(sa, runs_a, length))

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
        for j, w in _windows(sb, runs_b, lo):
            starts_b[w].append(j)
        tile = b"\x01" * lo
        for i, w in _windows(sa, runs_a, lo):
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


def gst_similarity(
    a: Sequence[Hashable],
    b: Sequence[Hashable],
    *,
    min_match_len: int = DEFAULT_MIN_MATCH_LEN,
) -> float:
    """Similarity of two token streams: 2*coverage / (len(a) + len(b))."""
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


def code_similarity(
    driver: extract.RepoContext,
    patch: Patch,
    *,
    min_match_len: int = DEFAULT_MIN_MATCH_LEN,
) -> Optional[float]:
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
    driver_streams = [stream.kinds() for stream in driver.code_files.values()]
    patch_streams = [
        extract.tokenize_code(modified.new_content).kinds()
        for modified in patch.files
        if modified.path.endswith(".java") and modified.new_content is not None
    ]
    if not driver_streams or not patch_streams:
        return None
    if min_match_len < 1:
        raise ValueError("min_match_len must be >= 1")
    m = min_match_len

    def windows(s: str):
        return [s[i : i + m] for i in range(len(s) - m + 1)]

    # one driver file's windows at a time: only the patch side is kept
    n = len(driver_streams)
    interned = _intern(driver_streams + patch_streams)
    patch_windows = [windows(s) for s in interned[n:]]
    patch_sets = [set(w) for w in patch_windows]
    pairs = []
    for d, driver_stream in enumerate(interned[:n]):
        d_windows = windows(driver_stream)
        d_set = set(d_windows)
        for p, patch_stream in enumerate(interned[n:]):
            # gst_similarity of the pair is at most `bound`
            total = len(driver_stream) + len(patch_stream)
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
        best = max(best, gst_similarity(driver_streams[d], patch_streams[p], min_match_len=m))
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


def _mention_widened(
    driver_issue: IssueDocument, declared: AbstractSet[str], vocabulary
) -> set:
    """The driver's declared set widened by candidate-vocabulary terms
    mentioned in the report thread."""
    return set(declared) | extract.extract_mentions(driver_issue, vocabulary)


def similarity_vector(
    driver_issue: IssueDocument,
    driver_ctx: extract.RepoContext,
    candidate_issue: IssueDocument,
    candidate_ctx: extract.RepoContext,
    patch: Optional[Patch],
    *,
    min_match_len: int = DEFAULT_MIN_MATCH_LEN,
) -> SimilarityVector:
    """Compare a driver report against one candidate across all factors.

    The driver's dependency/permission/UI sets are widened with terms
    from the candidate's declared vocabulary that the report text
    mentions, so a report that names a library counts as depending on
    it even if the driver project never declares it.
    """
    applicable = set()
    code = 0.0
    if patch is not None:
        best = code_similarity(driver_ctx, patch, min_match_len=min_match_len)
        if best is not None:
            code = best
            applicable.add(FACTOR_CODE)

    dependency = 0.0
    cand_deps = {d.canonical for d in candidate_ctx.dependencies}
    driver_deps = _mention_widened(
        driver_issue,
        {d.canonical for d in driver_ctx.dependencies},
        {d.canonical: d.artifact for d in candidate_ctx.dependencies},
    )
    if driver_deps and cand_deps:
        dependency = overlap_coefficient(driver_deps, cand_deps)
        applicable.add(FACTOR_DEPENDENCY)

    permission = 0.0
    ui = 0.0
    if driver_ctx.is_android and candidate_ctx.is_android:
        cand_perms = candidate_ctx.permissions
        permission = overlap_coefficient(
            _mention_widened(driver_issue, driver_ctx.permissions, cand_perms), cand_perms
        )
        applicable.add(FACTOR_PERMISSION)
        cand_ui = candidate_ctx.ui_elements
        ui = overlap_coefficient(
            _mention_widened(driver_issue, driver_ctx.ui_elements, cand_ui), cand_ui
        )
        applicable.add(FACTOR_UI)

    return SimilarityVector(
        code=code,
        dependency=dependency,
        permission=permission,
        ui=ui,
        applicable=frozenset(applicable),
    )
