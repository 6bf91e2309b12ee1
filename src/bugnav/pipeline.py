"""The two-phase recommendation flow.

Phase one is online: build a search query from the driver issue and
collect candidate issues from the platform. Phase two is offline: fetch
each candidate's thread and patch, then each distinct candidate
repository's snapshot once (without its Java, which only the driver's
side compares), compare them against the driver (prepared once per
run), and re-rank. All candidates' code factors come from one sweep of
each driver file against one index of their patches' Java files.

A live run fetches on ``parallelism`` worker threads, so that many
requests wait on the platform at once. A replay run, or a run with one
worker, fetches in the calling thread: a replayed request only reads a
local file, which leaves no wait to overlap, and threads there would only
pass the interpreter lock back and forth.

Only a live run imports ``requests``: ``build_client`` loads
``corpus/live.py`` in its live branch, so a run with ``--fixture-dir``,
``tune`` and ``evaluate`` never load the HTTP stack.
"""

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List

from .config import RunConfig
from .corpus.client import PlatformClient
from .corpus.fixtures import FixtureStore
from .corpus.models import (
    FILE_KINDS,
    IssueDocument,
    IssueHit,
    IssueRef,
    RepoSnapshot,
    find_patch_refs,
)
from .corpus.transport import ReplayTransport
from .errors import (
    NoCandidatesError,
    NotFoundError,
    RequestFailedError,
    ValidationError,
    checked_field,
    read_json_object,
)
from .extract import CONTEXT_KINDS, build_repo_context
from .querygen import QueryOutcome, build_query
from .ranking import RankInput, RankedCandidate, WeightConfig, quality_metrics, rank
from .similarity import Driver, repo_similarity, similarity_vector

log = logging.getLogger(__name__)

_ISSUE_FILE_KEYS = {"ref", "title", "body", "comments", "state", "labels"}


@dataclass(frozen=True)
class Recommendation:
    driver: IssueDocument
    outcome: QueryOutcome
    weights: WeightConfig
    candidates: List[RankedCandidate]


def build_client(config: RunConfig) -> PlatformClient:
    """Replay transport when fixtures are configured, live otherwise."""
    if config.fixture_dir is not None:
        if not os.path.isdir(config.fixture_dir):
            raise ValidationError(f"fixture directory does not exist: {config.fixture_dir}")
        transport = ReplayTransport(FixtureStore(config.fixture_dir))
    else:
        # the HTTP stack loads for a live run only (see the module docstring)
        from .corpus.live import LiveTransport

        transport = LiveTransport(token=os.environ.get(config.auth_token_source))
    return PlatformClient(transport, cache_dir=config.cache_dir)


def load_issue_file(path: str) -> IssueDocument:
    """Read a driver issue from a local JSON file.

    Lets users run the recommender on a report that is not filed
    anywhere yet. Patch references are still mined from the text so a
    local copy of an existing issue behaves like the fetched one.
    """
    data = read_json_object(path, "issue file")
    where = f"issue file {path}"
    unknown = set(data) - _ISSUE_FILE_KEYS
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        ref = IssueRef.parse(checked_field(data, "ref", str, where))
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    body = checked_field(data, "body", str, where, "")
    comments = checked_field(data, "comments", list, where, [], items=str)
    # documented keys that no factor reads: checked, not kept
    checked_field(data, "state", str, where, "")
    checked_field(data, "labels", list, where, [], items=str)
    return IssueDocument(
        ref=ref,
        title=checked_field(data, "title", str, where, ""),
        body=body,
        comments=comments,
        num_comments=len(comments),
        is_pull=False,
        patch_refs=find_patch_refs(ref.owner, ref.repo, [body] + comments),
    )


def resolve_driver(source: str, client: PlatformClient) -> IssueDocument:
    """Accept either an OWNER/REPO#N reference or a local issue file."""
    if os.path.exists(source):
        return load_issue_file(source)
    try:
        ref = IssueRef.parse(source)
    except ValueError as exc:
        raise ValidationError(
            f"driver {source!r} is neither an issue reference nor a readable file"
        ) from exc
    return client.fetch_issue(ref)


def _snapshot(client: PlatformClient, owner: str, repo: str, kinds) -> RepoSnapshot:
    """The repository's files of ``kinds``; none when the platform has no snapshot."""
    try:
        return client.fetch_repo_snapshot(owner, repo, kinds)
    except NotFoundError:
        log.warning("no snapshot for %s/%s, comparing without repository context", owner, repo)
        return RepoSnapshot()


def recommend(driver: IssueDocument, config: RunConfig, client: PlatformClient) -> Recommendation:
    """Run the full pipeline for one driver issue. A candidate whose issue
    or patch request fails is dropped with a warning; a rate limit, a
    replay miss or a malformed reply ends the run."""

    def search(query):
        return client.search_issues(
            query,
            language=config.language_filter,
            state="closed",
            max_results=config.max_candidates,
        )

    outcome = build_query(
        driver, search, n_threshold=config.n_threshold, scope=config.qualifier_mode
    )
    hits = [hit for hit in outcome.hits if hit.ref != driver.ref]
    if not hits:
        tried = ", ".join(query.strategy for query, _ in outcome.attempts)
        raise NoCandidatesError(
            f"search returned no candidates for {driver.ref} (strategies tried: {tried})"
        )
    # not before there are candidates: the driver's snapshot costs one
    # request per repository file
    home = (driver.ref.owner, driver.ref.repo)
    home_snapshot = _snapshot(client, *home, FILE_KINDS)
    side = Driver.prepare(driver, home_snapshot, min_match_len=config.min_match_len)

    def fetch(hit: IssueHit):
        try:
            issue = client.fetch_issue(hit.ref)
            patch = client.fetch_patch(issue)
        except RequestFailedError as exc:
            log.warning("candidate %s cannot be fetched, dropping it: %s", hit.ref, exc)
            return None
        return hit, issue, patch

    def repo_context(repo):
        if repo == home:
            return side.context
        return build_repo_context(_snapshot(client, *repo, CONTEXT_KINDS))

    # threads only for a live run (see the module docstring)
    workers = 1 if config.fixture_dir else config.parallelism
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        fetched = [f for f in run(fetch, hits) if f is not None]
        # each distinct repository once, in the order candidates name it
        repos = list(dict.fromkeys((hit.ref.owner, hit.ref.repo) for hit, _, _ in fetched))
        contexts = list(run(repo_context, repos))
    if not fetched:
        raise NoCandidatesError(f"every candidate for {driver.ref} failed to fetch")
    shared = {repo: repo_similarity(side, ctx) for repo, ctx in zip(repos, contexts)}
    kept, issues, patches = zip(*fetched)
    vectors = similarity_vector(side, [shared[h.ref.owner, h.ref.repo] for h in kept], patches)
    inputs = [
        RankInput(issue, quality_metrics(issue), sims, hit.search_rank)
        for hit, issue, sims in zip(kept, issues, vectors)
    ]
    ranked = rank(inputs, config.weights)
    return Recommendation(driver=driver, outcome=outcome, weights=config.weights, candidates=ranked)


def recommendation_to_dict(rec: Recommendation) -> dict:
    """Audit-friendly form: every factor, weight, and similarity."""
    query = rec.outcome.query
    return {
        "driver": str(rec.driver.ref),
        "query": {
            "strategy": query.strategy,
            "text": query.text,
            "qualifiers": list(query.qualifiers),
            "full": query.full(),
        },
        "attempts": [
            {"strategy": attempt.strategy, "query": attempt.full(), "hits": hits}
            for attempt, hits in rec.outcome.attempts
        ],
        "weights": rec.weights.to_dict(),
        "candidates": [_candidate_to_dict(c) for c in rec.candidates],
    }


def _candidate_to_dict(c: RankedCandidate) -> dict:
    return {
        "final_rank": c.final_rank,
        "search_rank": c.search_rank,
        "ref": str(c.issue.ref),
        "title": c.issue.title,
        "score": c.score,
        "factors": c.factors.to_dict(),
        # a non-applicable similarity (None) prints as 0.0
        "similarities": {
            **{name: value or 0.0 for name, value in vars(c.sims).items()},
            "applicable": sorted(c.sims.applicable),
        },
        "metrics": dict(vars(c.metrics)),
    }
