"""Similarity analyses between a driver bug report and candidate issues.

Four orthogonal signals: token-level code similarity between the driver
repository and a candidate's fix patch, plus overlap of dependencies,
Android permissions, and Android UI elements. Each signal is only
applicable when both sides actually have something to compare; a signal
that is not holds None in :class:`SimilarityVector`.

Code similarity is greedy string tiling (GST) of token-kind streams,
laid in one pass over their maximal matches (:func:`_tiles`). One run
indexes all candidates' Java patch files once (:func:`_index`) and sweeps
each driver file once against the index for every file pair's maximal
matches and pair bound (:func:`_matches`, :func:`code_similarity`).

Every candidate is compared against the same driver, so the driver side
is prepared once per run (:class:`Driver`), and the dependency,
permission and UI factors, which depend on a candidate's repository
alone, once per candidate repository (:func:`repo_similarity`).
"""

from __future__ import annotations

import dataclasses
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Sequence

from . import extract
from .corpus.models import IssueDocument, Patch, RepoSnapshot, file_kind

DEFAULT_MIN_MATCH_LEN = 9


def overlap_coefficient(xs: AbstractSet, ys: AbstractSet) -> float:
    """Szymkiewicz-Simpson coefficient; 0.0 when either set is empty."""
    if not xs or not ys:
        return 0.0
    return len(xs & ys) / min(len(xs), len(ys))


def _index(streams: Sequence, m: int):
    """Every ``m``-window of every stream, by its tokens and then by the
    tokens before and after it, an empty slice at a stream's edge. Window
    ``j`` of stream ``s`` is held as the one int ``j * len(streams) + s``."""
    n = len(streams)
    windows = {}
    for s, b in enumerate(streams):
        for j in range(len(b) - m + 1):
            around = (b[j - 1 : j], b[j + m : j + m + 1])
            windows.setdefault(b[j : j + m], {}).setdefault(around, []).append(j * n + s)
    return n, windows


def _matches(index, a, m: int):
    """The maximal matches of ``a`` against each indexed stream, as
    ``{stream: [(i, j, length), ...]}``, each read from its two ends as
    in Running Karp-Rabin GST and JPlag. A match starts at an equal window
    pair whose preceding tokens differ, or where either stream starts, and
    ends at one whose following tokens differ, or where either stream
    ends. The matches on one diagonal of one pair are disjoint, so its
    starts and ends, sorted, alternate and pair up; periodic streams list
    no quadratic number of window pairs."""
    n, windows = index
    # (d * n + s, i): a window pair by diagonal d = j - i and stream s,
    # then by position on the diagonal
    starts, ends = [], []
    for i in range(len(a) - m + 1):
        groups = windows.get(a[i : i + m])
        if groups is None:
            continue
        # None at a's edges differs from every key, the empty slice too
        before, after = a[i - 1 : i] or None, a[i + m : i + m + 1] or None
        shift = i * n
        for (token_before, token_after), held in groups.items():
            if token_before != before:
                starts += [(g - shift, i) for g in held]
            if token_after != after:
                ends += [(g - shift, i) for g in held]
    starts.sort()
    ends.sort()
    matches = defaultdict(list)
    for (key, i), (_, last) in zip(starts, ends):
        d, s = divmod(key, n)
        matches[s].append((i, d + i, last - i + m))
    return matches


def _covered(matches) -> int:
    """Positions of the indexed stream inside some of a pair's matches."""
    mask = 0
    for _, j, k in matches:
        mask |= ((1 << k) - 1) << j
    return mask.bit_count()


def _tiles(matches, m: int):
    """Greedy string tiling from a pair's maximal matches: repeatedly take
    the longest common unmarked substring. The matches are bucketed by
    length and the buckets taken longest first, each in (i, j) order,
    which is a round. A match still wholly unmarked becomes a tile;
    otherwise each piece of its diagonal unmarked on both sides and of
    ``m`` or more goes to the bucket of its length."""
    buckets = defaultdict(list)
    for i, j, k in matches:
        buckets[k].append((i, j))
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


def _greedy_tiles(a, b, m: int):
    """The tiles ``(i, j, length)`` of one pair: the three steps on ``[b]``."""
    return _tiles(_matches(_index([b], m), a, m)[0], m)


def gst_similarity(
    a: str, b: str, *, min_match_len: int = DEFAULT_MIN_MATCH_LEN, matches=None
) -> float:
    """Similarity of two token streams, strs as :func:`extract.tokenize_code`
    returns them (or two tuples): 2*coverage / (len(a) + len(b)). A caller
    that swept the pair (:func:`_matches`) passes its ``matches``."""
    if min_match_len < 1:
        raise ValueError("min_match_len must be >= 1")
    if type(a) is not type(b):
        # a str window never equals a tuple window, so the pair would score 0
        raise TypeError(f"streams of different types: {type(a).__name__}, {type(b).__name__}")
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    m = min_match_len
    tiles = _greedy_tiles(a, b, m) if matches is None else _tiles(matches, m)
    return 2.0 * sum(length for _, _, length in tiles) / (len(a) + len(b))


def code_similarity(driver: Driver, patches: Sequence[Optional[Patch]]) -> List[Optional[float]]:
    """For each patch, the best token similarity between any driver
    source file and any Java file the patch touches, or None when either
    side has nothing to compare.

    Identifier texts are abstracted to their token kind. Patch entries
    without fetched content can't be tokenized and are skipped, and a file
    on either side that lexes to no tokens (say, comments only) is nothing
    to compare.

    Every patch file is indexed once and every driver file swept once
    against the index (:func:`_matches`). A tile lies inside a match, so
    the patch file's positions inside some match bound the pair's
    coverage. A patch's pairs are tiled in descending bound order until
    the bound is no better than the best score, which keeps the max.
    """
    m = driver.min_match_len
    owners, streams = [], []
    for k, patch in enumerate(patches):
        for modified in patch.files if patch is not None else ():
            if file_kind(modified.path) == "java" and modified.new_content is not None:
                stream = extract.tokenize_code(modified.new_content)
                if stream:
                    owners.append(k)
                    streams.append(stream)
    index = _index(streams, m)
    pairs = [[] for _ in patches]
    for d, kinds in enumerate(driver.code):
        swept = _matches(index, kinds, m)
        for p, stream in enumerate(streams):
            matches = swept.get(p, ())
            # gst_similarity of the pair is at most `bound`
            bound = 2.0 * _covered(matches) / (len(kinds) + len(stream))
            pairs[owners[p]].append((bound, d, p, kinds, stream, matches))
    scores = []
    for candidate in pairs:
        best = 0.0 if candidate else None
        # (d, p) is unique, so the sort compares no streams
        for most, _, _, kinds, stream, matches in sorted(candidate, reverse=True):
            if most <= best:
                break
            best = max(best, gst_similarity(kinds, stream, min_match_len=m, matches=matches))
        scores.append(best)
    return scores


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
    each as its token kinds (:func:`extract.tokenize_code`); a file with
    none is left out."""

    thread: str
    context: extract.RepoContext
    code: List[str]
    min_match_len: int

    @classmethod
    def prepare(cls, issue: IssueDocument, snapshot: RepoSnapshot, *, min_match_len: int) -> Driver:
        if min_match_len < 1:
            raise ValueError("min_match_len must be >= 1")
        return cls(
            thread=extract.stemmed_thread(issue),
            context=extract.build_repo_context(snapshot),
            code=[kinds for kinds in extract.code_kinds(snapshot).values() if kinds],
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
    driver: Driver, repos: Sequence[SimilarityVector], patches: Sequence[Optional[Patch]]
) -> List[SimilarityVector]:
    """Every candidate's vector across all factors: its repository's
    factors (:func:`repo_similarity`) plus the code similarity of its fix
    patch against the driver's sources, all candidates of a run at once."""
    codes = zip(repos, code_similarity(driver, patches))
    return [dataclasses.replace(repo, code=code) for repo, code in codes]
