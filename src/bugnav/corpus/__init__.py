from bugnav.corpus.client import PlatformClient
from bugnav.corpus.fixtures import FixtureStore, canonical_key
from bugnav.corpus.miner import MINING_PHRASES, mine_similar_pairs
from bugnav.corpus.models import (
    FILE_KINDS,
    MAX_QUERY_LEN,
    IssueDocument,
    IssueHit,
    IssueRef,
    ModifiedFile,
    Patch,
    PatchRef,
    RepoSnapshot,
    SearchQuery,
    find_cross_repo_issue_ref,
    find_patch_refs,
)
from bugnav.corpus.transport import ReplayTransport, perform

__all__ = [
    "FILE_KINDS",
    "FixtureStore",
    "IssueDocument",
    "IssueHit",
    "IssueRef",
    "MAX_QUERY_LEN",
    "MINING_PHRASES",
    "ModifiedFile",
    "Patch",
    "PatchRef",
    "PlatformClient",
    "RepoSnapshot",
    "ReplayTransport",
    "SearchQuery",
    "canonical_key",
    "find_cross_repo_issue_ref",
    "find_patch_refs",
    "mine_similar_pairs",
    "perform",
]
