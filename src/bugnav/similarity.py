"""Similarity analyses between a driver bug report and candidate issues.

Four orthogonal signals: token-level code similarity between the driver
repository and a candidate's fix patch, plus overlap of dependencies,
Android permissions, and Android UI elements. Each signal is only
applicable when both sides actually have something to compare; a signal
that is not holds None in :class:`SimilarityVector`.

Code similarity is greedy string tiling (GST) of token-kind streams,
laid in one pass over the streams' maximal matches, each read from its
two ends: where the tokens before an equal window pair differ and where
the tokens after one do (:func:`_greedy_tiles`).

Every candidate is compared against the same driver, so the driver side,
its Java files' window sets included, is prepared once per run
(:class:`Driver`), and the dependency, permission and UI factors, which
depend on a candidate's repository alone, once per candidate repository
(:func:`repo_similarity`).
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Tuple

from . import extract
from .corpus.models import IssueDocument, Patch, RepoSnapshot, file_kind

DEFAULT_MIN_MATCH_LEN = 9


def overlap_coefficient(xs: AbstractSet, ys: AbstractSet) -> float:
    """Szymkiewicz-Simpson coefficient; 0.0 when either set is empty."""
    if not xs or not ys:
        return 0.0
    return len(xs & ys) / min(len(xs), len(ys))


# _cover's digits from a stream's per-window set probes (False/True bytes)
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _all_windows(s: str, length: int) -> List[str]:
    return [s[i : i + length] for i in range(len(s) - length + 1)]


def _cover(probes: bytes, length: int) -> int:
    """Positions of a stream inside some of its ``length``-windows, given
    one set probe per window in stream order, True for those that count."""
    covered = int(probes.translate(_DIGITS) or b"0", 2)
    # widen each window's bit over the `length` positions it spans
    span = 1
    while 2 * span <= length:
        covered |= covered << span
        span *= 2
    if span < length:
        covered |= covered << (length - span)
    return covered.bit_count()


def _greedy_tiles(a: str, b: str, min_match_len: int):
    """Greedy string tiling: repeatedly take the longest common unmarked
    substring, ties resolved in ascending (i, j) order within a round.

    One pass over the maximal matches, as in Running Karp-Rabin GST and
    JPlag, each read from its two ends. A match starts at an equal window
    pair whose preceding tokens differ, or where either stream starts,
    and ends at one whose following tokens differ, or where either stream
    ends. So ``b``'s windows are indexed by the tokens around them, and
    each window of ``a`` lists as starts the groups whose token before
    differs from its own and as ends those whose token after does. The
    matches on one diagonal are disjoint, so its starts and ends, sorted,
    alternate and pair up; periodic streams list no quadratic number of
    window pairs. The matches are bucketed by length and the buckets taken
    longest first, each in (i, j) order, which is a round. A match still
    wholly unmarked becomes a tile; otherwise each piece of its diagonal
    unmarked on both sides and of ``min_match_len`` or more goes to the
    bucket of its length.
    """
    m = min_match_len
    windows_a, windows_b = _all_windows(a, m), _all_windows(b, m)
    shared = set(windows_a).intersection(windows_b)
    groups = {}
    for j in itertools.compress(range(len(windows_b)), map(shared.__contains__, windows_b)):
        # an empty slice keys the missing token before b[0] or after b[-1]
        around = (b[j - 1 : j], b[j + m : j + m + 1])
        groups.setdefault(windows_b[j], {}).setdefault(around, []).append(j)
    # (j - i, i): a window pair by diagonal, then by position on it
    starts, ends = [], []
    for i in itertools.compress(range(len(windows_a)), map(shared.__contains__, windows_a)):
        # None at a's edges differs from every key, the empty slice too
        before, after = a[i - 1 : i] or None, a[i + m : i + m + 1] or None
        for (token_before, token_after), js in groups[windows_a[i]].items():
            if token_before != before:
                starts += [(j - i, i) for j in js]
            if token_after != after:
                ends += [(j - i, i) for j in js]
    starts.sort()
    ends.sort()
    buckets = defaultdict(list)
    for (d, i), (_, last) in zip(starts, ends):
        buckets[last - i + m].append((i, d + i))
    # runs of m or more "0"s, written with a literal prefix, which re
    # scans for much faster than for "0{m,}"
    pieces = re.compile("0" * m + "0*")
    # bit p of a mark: position p of the stream lies in a tile
    marked_a = marked_b = 0
    tiles = []
    # a piece is shorter than its match, so its bucket is still to come
    for k in range(max(buckets, default=0), m - 1, -1):
        span = (1 << k) - 1
        for i, j in sorted(buckets.pop(k, ())):
            # bit t: position t of the match is marked on either side
            taken = (marked_a >> i | marked_b >> j) & span
            if not taken:
                marked_a |= span << i
                marked_b |= span << j
                tiles.append((i, j, k))
                continue
            for piece in pieces.finditer(f"{taken:0{k}b}"[::-1]):
                start, stop = piece.span()
                buckets[stop - start].append((i + start, j + start))
    return tiles


def gst_similarity(a: str, b: str, *, min_match_len: int = DEFAULT_MIN_MATCH_LEN) -> float:
    """Similarity of two token streams, strs as :func:`extract.tokenize_code`
    returns them (or two tuples): 2*coverage / (len(a) + len(b))."""
    if min_match_len < 1:
        raise ValueError("min_match_len must be >= 1")
    if type(a) is not type(b):
        # a str window never equals a tuple window, so the pair would score 0
        raise TypeError(f"streams of different types: {type(a).__name__}, {type(b).__name__}")
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    covered = sum(length for _, _, length in _greedy_tiles(a, b, min_match_len))
    return 2.0 * covered / (len(a) + len(b))


def code_similarity(driver: Driver, patch: Patch) -> Optional[float]:
    """Best token similarity between any driver source file and any file
    touched by the patch, or None when either side has nothing to compare.

    Identifier texts are abstracted to their token kind. Patch entries
    without fetched content can't be tokenized and are skipped.

    Every tile is made of windows of ``min_match_len`` tokens that both
    streams contain, so the positions of the patch file inside windows
    the driver file also holds bound the pair's coverage: one probe of
    the driver file's window set per patch window. Pairs are scored in
    descending order of the bound until it is no better than the best
    score so far, which leaves the max unchanged.
    """
    patch_streams = [
        extract.tokenize_code(modified.new_content)
        for modified in patch.files
        if file_kind(modified.path) == "java" and modified.new_content is not None
    ]
    if not driver.code or not patch_streams:
        return None
    m = driver.min_match_len
    patch_windows = [_all_windows(s, m) for s in patch_streams]
    pairs = []
    for d, (d_stream, held) in enumerate(driver.code):
        for p, p_stream in enumerate(patch_streams):
            # gst_similarity of the pair is at most `bound`
            total = len(d_stream) + len(p_stream)
            cover = _cover(bytes(map(held.__contains__, patch_windows[p])), m)
            bound = 2.0 * cover / total if total else 1.0
            pairs.append((bound, d, p))
    pairs.sort(reverse=True)
    best = 0.0
    for most, d, p in pairs:
        if most <= best:
            break
        best = max(best, gst_similarity(driver.code[d][0], patch_streams[p], min_match_len=m))
    return best


@dataclass(frozen=True)
class SimilarityVector:
    """Per-factor similarity in [0, 1], or None for a factor with nothing
    to compare, which means "not applicable", not "compared and failed"."""

    code: Optional[float] = None
    dependency: Optional[float] = None
    permission: Optional[float] = None
    ui: Optional[float] = None

    @property
    def applicable(self) -> frozenset:
        """The names of the factors that had something to compare."""
        return frozenset(name for name, value in vars(self).items() if value is not None)


@dataclass(frozen=True)
class Driver:
    """The driver side of every comparison in one run, prepared once and
    shared read-only by all candidates: the report thread as one string
    of stemmed words for mentions (:func:`extract.stemmed_thread`), the
    repository's facts, and its Java files for :func:`code_similarity`,
    each as its token kinds (:func:`extract.tokenize_code`) and its set of
    ``min_match_len``-windows."""

    thread: str
    context: extract.RepoContext
    code: List[Tuple[str, AbstractSet[str]]]
    min_match_len: int

    @classmethod
    def prepare(
        cls,
        issue: IssueDocument,
        snapshot: RepoSnapshot,
        *,
        min_match_len: int,
    ) -> "Driver":
        if min_match_len < 1:
            raise ValueError("min_match_len must be >= 1")
        return cls(
            thread=extract.stemmed_thread(issue),
            context=extract.build_repo_context(snapshot),
            code=[
                (kinds, set(_all_windows(kinds, min_match_len)))
                for kinds in extract.code_kinds(snapshot).values()
            ],
            min_match_len=min_match_len,
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
    ctx = driver.context
    cand_deps = candidate.dependencies.keys()
    # a dependency is mentioned where its artifact name is
    driver_deps = _mention_widened(driver, ctx.dependencies.keys(), candidate.dependencies)
    dependency = overlap_coefficient(driver_deps, cand_deps) if driver_deps and cand_deps else None
    if not (ctx.is_android and candidate.is_android):
        return SimilarityVector(dependency=dependency)
    cand_perms = candidate.permissions
    cand_ui = candidate.ui_elements
    return SimilarityVector(
        dependency=dependency,
        permission=overlap_coefficient(
            _mention_widened(driver, ctx.permissions, cand_perms), cand_perms
        ),
        ui=overlap_coefficient(_mention_widened(driver, ctx.ui_elements, cand_ui), cand_ui),
    )


def similarity_vector(
    driver: Driver, repo: SimilarityVector, patch: Optional[Patch]
) -> SimilarityVector:
    """One candidate's vector across all factors: its repository's
    factors (:func:`repo_similarity`) plus the code similarity of its
    fix patch against the driver's sources."""
    code = None if patch is None else code_similarity(driver, patch)
    return dataclasses.replace(repo, code=code)
