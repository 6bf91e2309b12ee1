import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bugnav import pipeline
from bugnav.config import RunConfig
from bugnav.corpus.client import PlatformClient
from bugnav.corpus.live import LiveTransport
from bugnav.corpus.models import (
    FILE_KINDS,
    IssueDocument,
    IssueHit,
    IssueRef,
    ModifiedFile,
    Patch,
    PatchRef,
    RepoSnapshot,
    file_kind,
)
from bugnav.corpus.transport import ReplayTransport
from bugnav.errors import (
    NoCandidatesError,
    NotFoundError,
    QueryConstructionError,
    RateLimitError,
    TransportError,
    ValidationError,
)
from bugnav.ranking import WeightConfig
from bugnav.similarity import SimilarityVector
from oracles import recommend_reference
from stubs import (
    SHARED_CANDIDATES,
    SHARED_QUERY,
    TRACE_BODY,
    StubTransport,
    item,
    put_file,
    put_issue,
    put_pull,
    put_repo_tree,
    put_search,
    put_shared_repos,
)

ROOT = Path(__file__).resolve().parent.parent

DRIVER_BODY = """\
Serialization fails once the values pass a certain size:

java.io.UTFDataFormatException: encoded string too long: 93067 bytes
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:364)
    at com.typesafe.config.impl.SerializedConfigValue.writeValueData(SerializedConfigValue.java:301)
"""

MAIN_JAVA = """\
public class Main {
    public int size(byte[] data) {
        if (data == null) {
            return 0;
        }
        return data.length;
    }
}
"""

POM = """\
<project>
  <dependencies>
    <dependency>
      <groupId>com.typesafe</groupId>
      <artifactId>config</artifactId>
      <version>1.3.0</version>
    </dependency>
  </dependencies>
</project>
"""

FIX_BODY = (
    "Steps to reproduce the error are below. The exception only shows up "
    "with large payloads and the fix keeps the actual size in bounds."
)


def _ref(owner, repo, number):
    return IssueRef(owner=owner, repo=repo, number=number)


def _doc(ref, title="t", body="", comments=(), patch_refs=()):
    return IssueDocument(
        ref=ref,
        title=title,
        body=body,
        comments=list(comments),
        num_comments=len(comments),
        is_pull=False,
        patch_refs=list(patch_refs),
    )


class FakeClient:
    """In-memory stand-in for PlatformClient, keyed by issue ref."""

    def __init__(self):
        self.search_results = []
        self.search_queries = []
        self.search_kwargs = []
        self.issues = {}
        self.patches = {}
        self.snapshots = {}

    def search_issues(self, query, *, language=None, state="closed", max_results=100):
        self.search_queries.append(query)
        self.search_kwargs.append((language, state, max_results))
        return self.search_results[:max_results]

    def fetch_issue(self, ref):
        if ref not in self.issues:
            raise NotFoundError(f"no such issue {ref}")
        return self.issues[ref]

    def fetch_patch(self, issue):
        return self.patches.get(issue.ref)

    def fetch_repo_snapshot(self, owner, repo, kinds=FILE_KINDS):
        key = f"{owner}/{repo}"
        if key not in self.snapshots:
            raise NotFoundError(f"no snapshot for {key}")
        snapshot = self.snapshots[key]
        files = {path: text for path, text in snapshot.files.items() if file_kind(path) in kinds}
        return dataclasses.replace(snapshot, files=files)


def _hit(ref, rank):
    return IssueHit(ref=ref, search_rank=rank)


def _scenario():
    """Driver plus three candidates; the patched one should win."""
    client = FakeClient()
    driver_ref = _ref("octo", "driver", 7)
    driver = _doc(driver_ref, title="UTFDataFormatException on large objects", body=DRIVER_BODY)
    client.issues[driver_ref] = driver
    client.snapshots["octo/driver"] = RepoSnapshot({"src/Main.java": MAIN_JAVA, "pom.xml": POM})

    alpha = _ref("acme", "alpha", 11)
    beta = _ref("acme", "beta", 22)
    delta = _ref("acme", "delta", 44)
    client.issues[alpha] = _doc(alpha, title="alpha bug", body="identical filler words here")
    client.issues[beta] = _doc(beta, title="beta bug", body="identical filler words here")
    client.issues[delta] = _doc(
        delta,
        title="delta bug",
        body=FIX_BODY,
        comments=["Fixed by the linked pull request."],
        patch_refs=[PatchRef(kind="pull", owner="acme", repo="delta", ref="9")],
    )
    client.snapshots["acme/alpha"] = RepoSnapshot()
    client.snapshots["acme/beta"] = RepoSnapshot()
    client.snapshots["acme/delta"] = RepoSnapshot({"pom.xml": POM})
    client.patches[delta] = Patch(
        ref=PatchRef(kind="pull", owner="acme", repo="delta", ref="9"),
        files=[ModifiedFile(path="src/Fix.java", new_content=MAIN_JAVA)],
    )
    client.search_results = [_hit(alpha, 1), _hit(beta, 2), _hit(delta, 3)]
    return client, driver


CFG = RunConfig(n_threshold=2)


class TestRecommend:
    def test_patched_lookalike_wins(self):
        client, driver = _scenario()
        rec = pipeline.recommend(driver, CFG, client)
        refs = [str(c.issue.ref) for c in rec.candidates]
        assert refs == ["acme/delta#44", "acme/alpha#11", "acme/beta#22"]
        assert [c.final_rank for c in rec.candidates] == [1, 2, 3]
        top = rec.candidates[0]
        assert top.sims.code == 1.0
        assert top.sims.dependency == 1.0
        assert top.search_rank == 3

    def test_search_wiring_uses_config(self):
        client, driver = _scenario()
        cfg = RunConfig(n_threshold=2, max_candidates=50)
        rec = pipeline.recommend(driver, cfg, client)
        assert client.search_kwargs == [("java", "closed", 50)]
        assert rec.outcome.query.strategy == "stack_trace"
        assert len(rec.outcome.attempts) == 1
        assert rec.weights == cfg.weights

    def test_driver_never_recommends_itself(self):
        client, driver = _scenario()
        client.search_results = [_hit(driver.ref, 1)] + client.search_results
        rec = pipeline.recommend(driver, CFG, client)
        refs = {str(c.issue.ref) for c in rec.candidates}
        assert "octo/driver#7" not in refs
        assert len(rec.candidates) == 3

    def test_no_hits_raises_with_strategies(self):
        client, driver = _scenario()
        client.search_results = []
        with pytest.raises(NoCandidatesError) as exc:
            pipeline.recommend(driver, CFG, client)
        assert "stack_trace" in str(exc.value)

    def test_driver_only_hits_count_as_none(self):
        client, driver = _scenario()
        client.search_results = [_hit(driver.ref, 1), _hit(driver.ref, 2)]
        with pytest.raises(NoCandidatesError):
            pipeline.recommend(driver, CFG, client)

    def test_missing_snapshots_degrade_to_empty_context(self, caplog):
        client, driver = _scenario()
        client.snapshots.clear()
        with caplog.at_level(logging.WARNING, logger="bugnav.pipeline"):
            rec = pipeline.recommend(driver, CFG, client)
        assert len(rec.candidates) == 3
        assert all(not c.sims.applicable for c in rec.candidates)
        assert any("snapshot" in r.getMessage() for r in caplog.records)

    def test_unfetchable_candidate_is_dropped(self, caplog):
        # serially and on the pool
        for workers in (1, 4):
            client, driver = _scenario()
            del client.issues[_ref("acme", "alpha", 11)]
            cfg = RunConfig(n_threshold=2, parallelism=workers)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="bugnav.pipeline"):
                rec = pipeline.recommend(driver, cfg, client)
            refs = {str(c.issue.ref) for c in rec.candidates}
            assert refs == {"acme/beta#22", "acme/delta#44"}
            assert any("acme/alpha#11" in r.getMessage() for r in caplog.records)

    def test_zero_weights_reproduce_platform_order(self):
        client, driver = _scenario()
        zero = WeightConfig(**{f: 0.0 for f in WeightConfig().to_dict()})
        cfg = RunConfig(n_threshold=2, weights=zero)
        rec = pipeline.recommend(driver, cfg, client)
        refs = [str(c.issue.ref) for c in rec.candidates]
        assert refs == ["acme/alpha#11", "acme/beta#22", "acme/delta#44"]

    def test_parallelism_does_not_change_output(self):
        outs = []
        for workers in (1, 4):
            client, driver = _scenario()
            cfg = RunConfig(n_threshold=2, parallelism=workers)
            rec = pipeline.recommend(driver, cfg, client)
            outs.append(pipeline.recommendation_to_dict(rec))
        assert outs[0] == outs[1]


def _shared_run(workers, transport=None):
    """recommend over stubs.put_shared_repos; the requests it made and its output."""
    if transport is None:
        transport = StubTransport()
        put_shared_repos(transport)
    client = PlatformClient(transport)
    driver = client.fetch_issue(_ref("octo", "driver", 7))
    transport.calls.clear()
    rec = pipeline.recommend(driver, RunConfig(n_threshold=2, parallelism=workers), client)
    return transport.calls, pipeline.recommendation_to_dict(rec)


class _ThreadRecorder(StubTransport):
    """StubTransport that notes the thread each request runs on."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def fetch_raw(self, endpoint, params):
        self.threads.append((endpoint, dict(params), threading.get_ident()))
        return super().fetch_raw(endpoint, params)


@pytest.mark.parametrize("workers", [1, 3])
def test_live_run_fetches_on_workers_only_when_it_has_several(workers):
    transport = _ThreadRecorder()
    put_shared_repos(transport)
    _shared_run(workers, transport)
    candidates = {
        ident
        for endpoint, params, ident in transport.threads
        if endpoint == "get_issue" and params["number"] != "7"
    }
    caller = threading.get_ident()
    if workers == 1:
        assert candidates == {caller}
    else:
        assert candidates and caller not in candidates


def test_replay_run_starts_no_pool(tmp_path):
    """Replayed requests are fetched in the calling thread, whatever the
    parallelism, with the golden output."""
    fixtures = tmp_path / "walkthrough"
    shutil.copytree(ROOT / "fixtures" / "walkthrough", fixtures)
    config = RunConfig(fixture_dir=str(fixtures), parallelism=4)
    client = pipeline.build_client(config)
    driver = pipeline.resolve_driver("lightbend/config#398", client)
    refuse = AssertionError("a replay run started a thread pool")
    with mock.patch.object(pipeline, "ThreadPoolExecutor", side_effect=refuse):
        rec = pipeline.recommend(driver, config, client)
    out = json.dumps(pipeline.recommendation_to_dict(rec), indent=2, sort_keys=True) + "\n"
    assert out == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_text()


class TestPerRunSharing:
    def test_one_snapshot_fetch_per_distinct_repo(self):
        repos = {("octo", "driver")} | {(o, r) for o, r, _ in SHARED_CANDIDATES}
        outs = []
        for workers in (1, 4):
            calls, out = _shared_run(workers)
            fetched = Counter(
                (endpoint, params["owner"], params["repo"])
                for endpoint, params in calls
                if endpoint in ("get_repo", "get_tree")
            )
            expected = Counter({("get_repo", o, r): 1 for o, r in repos})
            # acme/gone answers get_repo with 404, so its tree is never asked for
            expected.update({("get_tree", o, r): 1 for o, r in repos if r != "gone"})
            assert fetched == expected
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(outs[0]["candidates"]) == len(SHARED_CANDIDATES)
        top = outs[0]["candidates"][0]
        assert top["ref"] == "acme/alpha#11"
        assert top["similarities"]["code"] == 1.0

    def test_missing_snapshot_shared_by_two_candidates_warns_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="bugnav.pipeline"):
            _, out = _shared_run(1)
        gone = [r for r in caplog.records if "no snapshot for acme/gone" in r.getMessage()]
        assert len(gone) == 1
        for ref in ("acme/gone#31", "acme/gone#32"):
            cand = next(c for c in out["candidates"] if c["ref"] == ref)
            assert cand["similarities"]["applicable"] == []
        names = [f.name for f in dataclasses.fields(SimilarityVector)]
        for cand in out["candidates"]:
            sims = cand["similarities"]
            assert set(sims) == {*names, "applicable"}
            for name in set(names) - set(sims["applicable"]):
                assert json.dumps(sims[name]) == "0.0"

    @pytest.mark.parametrize(
        "changes, error",
        [
            # the stack-trace rung finds nothing and the title gives no other
            ({"title": ""}, NoCandidatesError),
            ({"title": "the", "body": "no trace here"}, QueryConstructionError),
        ],
        ids=["no-hits", "no-query"],
    )
    def test_no_repository_requests_without_candidates(self, changes, error):
        transport = StubTransport()
        put_shared_repos(transport)
        put_search(transport, SHARED_QUERY, [])
        client = PlatformClient(transport)
        driver = dataclasses.replace(client.fetch_issue(_ref("octo", "driver", 7)), **changes)
        transport.calls.clear()
        with pytest.raises(error):
            pipeline.recommend(driver, RunConfig(n_threshold=2), client)
        requested = {endpoint for endpoint, _ in transport.calls}
        assert not requested & {"get_repo", "get_tree", "get_file_content"}

    def test_other_snapshot_errors_propagate(self):
        transport = StubTransport()
        put_shared_repos(transport)
        transport.put("get_repo", {"owner": "acme", "repo": "beta"}, {"message": "boom"}, status=500)
        with pytest.raises(TransportError, match="500"):
            _shared_run(1, transport)


class TestCandidateFailures:
    @pytest.mark.parametrize(
        "endpoint, params, ref",
        [
            ("get_issue", {"owner": "acme", "repo": "beta", "number": "21"}, "acme/beta#21"),
            # acme/alpha#11 links pull 9, its patch
            (
                "get_pull_files",
                {"owner": "acme", "repo": "alpha", "number": "9", "page": "1", "per_page": "100"},
                "acme/alpha#11",
            ),
        ],
        ids=["issue", "patch"],
    )
    def test_failing_candidate_is_dropped(self, caplog, endpoint, params, ref):
        _, before = _shared_run(1)
        transport = StubTransport()
        put_shared_repos(transport)
        transport.put(endpoint, params, {"message": "boom"}, status=500)
        with caplog.at_level(logging.WARNING, logger="bugnav.pipeline"):
            _, after = _shared_run(1, transport)
        kept = [(c["ref"], c["score"]) for c in before["candidates"] if c["ref"] != ref]
        assert [(c["ref"], c["score"]) for c in after["candidates"]] == kept
        assert any(ref in r.getMessage() and "500" in r.getMessage() for r in caplog.records)

    def test_every_candidate_failing_is_no_candidates(self):
        transport = StubTransport()
        put_shared_repos(transport)
        for owner, repo, number in SHARED_CANDIDATES:
            params = {"owner": owner, "repo": repo, "number": str(number)}
            transport.put("get_issue", params, {"message": "boom"}, status=502)
        with pytest.raises(NoCandidatesError, match="failed to fetch"):
            _shared_run(1, transport)

    def test_rate_limit_still_aborts(self):
        transport = StubTransport()
        put_shared_repos(transport)
        params = {"owner": "acme", "repo": "beta", "number": "21"}
        transport.put("get_issue", params, {"message": "API rate limit exceeded"}, status=403)
        with pytest.raises(RateLimitError):
            _shared_run(1, transport)


def _requests(calls):
    return Counter((endpoint, json.dumps(params, sort_keys=True)) for endpoint, params in calls)


def _recording_snapshots(client):
    """Route the client's snapshot fetches through a recorder: the paths
    each returned snapshot holds, by repository."""
    seen = {}
    fetch = client.fetch_repo_snapshot

    def recording(owner, repo, kinds=FILE_KINDS):
        snapshot = fetch(owner, repo, kinds)
        seen[owner, repo] = sorted(snapshot.files)
        return snapshot

    client.fetch_repo_snapshot = recording
    return seen


class TestFetchByRole:
    def test_no_candidate_repository_java_is_requested(self):
        for workers in (1, 4):
            calls, _ = _shared_run(workers)
            java = Counter(
                (params["owner"], params["repo"], params["path"], params["ref"])
                for endpoint, params in calls
                if endpoint == "get_file_content" and params["path"].endswith(".java")
            )
            # the driver's own source and the patch of acme/alpha#11; acme/alpha's
            # src/A.java sits in a candidate repository and is never asked for
            assert java == Counter({
                ("octo", "driver", "src/Main.java", "c" * 40): 1,
                ("acme", "alpha", "src/Fix.java", "f" * 40): 1,
            })

    def test_requests_drop_and_output_stays(self):
        calls, out = _shared_run(1)
        with mock.patch.object(pipeline, "CONTEXT_KINDS", FILE_KINDS):
            all_calls, all_out = _shared_run(1)
        assert out == all_out
        assert _requests(all_calls) - _requests(calls) == _requests([
            ("get_file_content",
             {"owner": "acme", "repo": "alpha", "path": "src/A.java", "ref": "c" * 40}),
        ])
        assert not _requests(calls) - _requests(all_calls)

    def test_roles_swap_on_one_cache(self, tmp_path):
        """acme/alpha is a candidate repository in the first run and the
        driver's in the second; octo/driver the other way round. Each gets
        the files of its role, whatever the cache already holds."""
        transport = StubTransport()
        put_shared_repos(transport)
        client = PlatformClient(transport, cache_dir=tmp_path)
        first = _recording_snapshots(client)
        driver = client.fetch_issue(_ref("octo", "driver", 7))
        pipeline.recommend(driver, RunConfig(n_threshold=2, parallelism=1), client)
        assert first["octo", "driver"] == ["pom.xml", "src/Main.java"]
        assert first["acme", "alpha"] == ["pom.xml"]

        swapped = dataclasses.replace(driver, ref=_ref("acme", "alpha", 11))
        outs = []
        for cache_dir in (tmp_path, None):
            client = PlatformClient(transport, cache_dir=cache_dir)
            second = _recording_snapshots(client)
            rec = pipeline.recommend(swapped, RunConfig(n_threshold=2, parallelism=1), client)
            assert second["acme", "alpha"] == ["pom.xml", "src/A.java"]
            assert second["octo", "driver"] == ["pom.xml"]
            outs.append(pipeline.recommendation_to_dict(rec))
        # served from the cache or not, the second run's output is the same
        assert outs[0] == outs[1]


_JAVA_SOURCES = [
    MAIN_JAVA,
    MAIN_JAVA.replace("return 0;", "return -1;"),
    "class Empty { }\n",
    "// nothing but a comment\n",
    "class Sum { int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; } }\n",
]
_DEPENDENCIES = [("com.typesafe", "config"), ("junit", "junit"), ("com.squareup.okhttp3", "okhttp")]
_PERMISSIONS = ["android.permission.CAMERA", "android.permission.INTERNET", "RECORD_AUDIO"]
_WIDGETS = ["Button", "TextView", "RecyclerView"]
# the texts name some of the dependencies, permissions and widgets above
_TEXTS = [
    "Steps to reproduce the crash are below.",
    "Expected no error, actual exception.",
    "identical filler words here",
    "The camera button in the recycler view fails after the okhttp upgrade.",
    "Record audio stops when the text view scrolls; junit shows it.",
]
_REPOS = [("octo", "driver"), ("acme", "alpha"), ("acme", "beta"), ("acme", "gamma")]
_ANDROID_NS = 'xmlns:android="http://schemas.android.com/apk/res/android"'


@st.composite
def _repo_files(draw):
    """A snapshot's files: a pom, perhaps an Android manifest and layout,
    and up to two Java files."""
    files = {}
    deps = draw(st.lists(st.sampled_from(_DEPENDENCIES), unique=True, max_size=2))
    if deps:
        files["pom.xml"] = "<project><dependencies>%s</dependencies></project>" % "".join(
            f"<dependency><groupId>{g}</groupId><artifactId>{a}</artifactId></dependency>"
            for g, a in deps
        )
    if draw(st.booleans()):
        perms = draw(st.lists(st.sampled_from(_PERMISSIONS), unique=True, max_size=3))
        files["AndroidManifest.xml"] = f"<manifest {_ANDROID_NS}>%s</manifest>" % "".join(
            f'<uses-permission android:name="{p}"/>' for p in perms
        )
        widgets = draw(st.lists(st.sampled_from(_WIDGETS), unique=True, max_size=2))
        files["res/layout/main.xml"] = f"<LinearLayout {_ANDROID_NS}>%s</LinearLayout>" % "".join(
            f"<{w}/>" for w in widgets
        )
    for k, source in enumerate(draw(st.lists(st.sampled_from(_JAVA_SOURCES), max_size=2))):
        files[f"src/C{k}.java"] = source
    return files


@st.composite
def _corpora(draw):
    """A scripted platform for driver octo/driver#7 and one to five
    candidates from four repositories, and the run's configuration.

    A repository may have no snapshot; a candidate may link no patch, a
    patch that does not resolve or one with Java and other files, and its
    issue may fail with a 500."""
    transport = StubTransport()
    for owner, repo in _REPOS:
        if draw(st.booleans()):
            put_repo_tree(transport, owner, repo, draw(_repo_files()))
        else:
            transport.put("get_repo", {"owner": owner, "repo": repo}, {"message": "Not Found"},
                          status=404)
    put_issue(transport, "octo", "driver", 7, title="UTFDataFormatException on large objects",
              body=TRACE_BODY, state="open",
              comments=draw(st.lists(st.sampled_from(_TEXTS), max_size=2)))
    items = []
    for k in range(draw(st.integers(1, 5))):
        owner, repo = draw(st.sampled_from(_REPOS))
        number, pull = 10 + k, str(100 + k)
        comments = draw(st.lists(st.sampled_from(_TEXTS), max_size=2))
        patch = draw(st.sampled_from(["files", "none", "unresolved"]))
        if patch != "none":
            comments.append(f"Fixed by https://github.com/{owner}/{repo}/pull/{pull}")
        put_issue(transport, owner, repo, number, title=f"{repo} bug",
                  body=draw(st.sampled_from(_TEXTS)), comments=comments)
        if patch == "files":
            paths = ["src/Fix.java", "src/Gone.java", "README.md", "res/layout/main.xml"]
            picked = draw(st.lists(st.sampled_from(paths), unique=True, min_size=1, max_size=3))
            put_pull(transport, owner, repo, pull,
                     [(p, "removed" if p == "src/Gone.java" else "modified") for p in picked])
            if "src/Fix.java" in picked:
                source = draw(st.sampled_from(_JAVA_SOURCES))
                put_file(transport, owner, repo, "src/Fix.java", "f" * 40, source)
        elif patch == "unresolved":
            transport.put("get_pull", {"owner": owner, "repo": repo, "number": pull},
                          {"message": "Not Found"}, status=404)
        if draw(st.integers(0, 5)) == 5:
            transport.put("get_issue", {"owner": owner, "repo": repo, "number": str(number)},
                          {"message": "boom"}, status=500)
        items.append(item(owner, repo, number, f"{repo} bug"))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), item("octo", "driver", 7, "driver"))
    put_search(transport, SHARED_QUERY, items)
    # zero weights tie every score
    weights = draw(st.sampled_from(
        [WeightConfig(), WeightConfig(**dict.fromkeys(WeightConfig().to_dict(), 0.0))]
    ))
    config = RunConfig(
        n_threshold=1,
        weights=weights,
        min_match_len=draw(st.sampled_from([3, 9])),
        parallelism=draw(st.sampled_from([1, 3])),
    )
    return transport, config


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_corpora())
def test_recommend_equals_reference(corpus):
    transport, config = corpus
    client = PlatformClient(transport)
    driver = client.fetch_issue(_ref("octo", "driver", 7))

    def output(recommend):
        try:
            return pipeline.recommendation_to_dict(recommend(driver, config, client))
        except NoCandidatesError:
            return None

    assert output(pipeline.recommend) == output(recommend_reference)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_corpora())
def test_candidate_snapshots_skip_only_their_java(corpus):
    """Against candidate snapshots of every kind, fetching by role drops
    only the candidate repositories' Java requests, and the output stays."""
    transport, config = corpus
    driver = PlatformClient(transport).fetch_issue(_ref("octo", "driver", 7))

    def run():
        transport.calls.clear()
        try:
            rec = pipeline.recommend(driver, config, PlatformClient(transport))
            out = pipeline.recommendation_to_dict(rec)
        except NoCandidatesError:
            out = None
        return _requests(transport.calls), out

    calls, out = run()
    with mock.patch.object(pipeline, "CONTEXT_KINDS", FILE_KINDS):
        all_calls, all_out = run()
    assert out == all_out
    assert not calls - all_calls
    for endpoint, params in (all_calls - calls).elements():
        params = json.loads(params)
        assert endpoint == "get_file_content" and params["path"].endswith(".java")
        assert (params["owner"], params["repo"]) != ("octo", "driver")
        assert params["ref"] == "c" * 40


class TestRecommendationDict:
    def test_shape_and_determinism(self):
        client, driver = _scenario()
        rec = pipeline.recommend(driver, CFG, client)
        data = pipeline.recommendation_to_dict(rec)
        assert set(data) == {"driver", "query", "attempts", "weights", "candidates"}
        assert data["driver"] == "octo/driver#7"
        assert data["query"]["strategy"] == "stack_trace"
        assert data["query"]["text"] == "UTFDataFormatException encoded string too long"
        assert data["query"]["qualifiers"] == ["in:body,comments"]
        assert data["attempts"] == [
            {
                "strategy": "stack_trace",
                "query": "UTFDataFormatException encoded string too long in:body,comments",
                "hits": 3,
            }
        ]
        assert data["weights"] == CFG.weights.to_dict()
        top = data["candidates"][0]
        assert set(top) == {
            "final_rank",
            "search_rank",
            "ref",
            "title",
            "score",
            "factors",
            "similarities",
            "metrics",
        }
        assert top["similarities"]["applicable"] == ["code", "dependency"]
        assert top["metrics"]["has_fix_commit"] is True

        client2, driver2 = _scenario()
        again = pipeline.recommendation_to_dict(pipeline.recommend(driver2, CFG, client2))
        assert json.dumps(data, indent=2, sort_keys=True) == json.dumps(
            again, indent=2, sort_keys=True
        )


class TestResolveDriver:
    def test_reference_fetches_from_client(self):
        client, driver = _scenario()
        assert pipeline.resolve_driver("octo/driver#7", client) is driver

    def test_file_path_loads_local_issue(self, tmp_path):
        path = tmp_path / "issue.json"
        path.write_text(
            json.dumps(
                {
                    "ref": "octo/driver#7",
                    "title": "UTFDataFormatException on large objects",
                    "body": DRIVER_BODY,
                    "comments": ["see also https://github.com/octo/driver/pull/9"],
                }
            )
        )
        doc = pipeline.resolve_driver(str(path), FakeClient())
        assert str(doc.ref) == "octo/driver#7"
        assert doc.num_comments == 1
        assert PatchRef(kind="pull", owner="octo", repo="driver", ref="9") in doc.patch_refs

    def test_unresolvable_source(self, tmp_path):
        with pytest.raises(ValidationError):
            pipeline.resolve_driver(str(tmp_path / "missing.json"), FakeClient())
        for source in ("definitely not a ref", "octo/driver#0", "o/r#00", "o/r#007",
                       "../r#1", "o/.#1"):
            with pytest.raises(ValidationError):
                pipeline.resolve_driver(source, FakeClient())


class TestLoadIssueFile:
    def test_minimal_fields(self, tmp_path):
        path = tmp_path / "issue.json"
        path.write_text(json.dumps({"ref": "o/r#1", "title": "t"}))
        doc = pipeline.load_issue_file(str(path))
        assert doc.body == ""
        assert doc.comments == []
        assert not doc.is_pull

    @pytest.mark.parametrize(
        "payload",
        [
            "{broken",
            json.dumps({"title": "no ref"}),
            json.dumps({"ref": "o/r#1", "title": "t", "bogus_key": 1}),
            json.dumps({"ref": "not-a-ref", "title": "t"}),
            json.dumps({"ref": "o/r#0", "title": "t"}),
            json.dumps({"ref": "o/r#00", "title": "t"}),
            json.dumps({"ref": "o/r#007", "title": "t"}),
            json.dumps(["not", "an", "object"]),
        ],
    )
    def test_bad_files_rejected(self, tmp_path, payload):
        path = tmp_path / "issue.json"
        path.write_text(payload)
        with pytest.raises(ValidationError):
            pipeline.load_issue_file(str(path))


class TestBuildClient:
    def test_replay_client(self, tmp_path):
        client = pipeline.build_client(RunConfig(fixture_dir=str(tmp_path)))
        assert isinstance(client, PlatformClient)
        assert isinstance(client._transport, ReplayTransport)

    def test_missing_fixture_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            pipeline.build_client(RunConfig(fixture_dir=str(tmp_path / "nope")))

    def test_live_client_reads_token_env(self, monkeypatch):
        monkeypatch.setenv("MY_TOKEN", "tok123")
        client = pipeline.build_client(RunConfig(auth_token_source="MY_TOKEN"))
        assert isinstance(client._transport, LiveTransport)


# A fresh interpreter: this test process already holds requests through
# the imports of test_transport.py.
_OFFLINE_RUN = """
import contextlib, io, sys
from bugnav import cli
from bugnav.evalharness import EvalDataset
from bugnav.ranking import tune_weights

fixtures, dataset = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["recommend", "lightbend/config#398", "--fixture-dir", fixtures])
assert code == 0 and out.getvalue(), code
tune_weights(EvalDataset.load(dataset), 0.0714)
print(sorted({"requests", "urllib3"} & set(sys.modules)))
"""


def test_offline_runs_never_import_the_http_stack():
    """A replayed recommend and the tuner run without loading requests."""
    run = subprocess.run(
        [
            sys.executable, "-c", _OFFLINE_RUN,
            str(ROOT / "fixtures" / "walkthrough"),
            str(ROOT / "fixtures" / "eval" / "dataset.jsonl"),
        ],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "[]\n"
